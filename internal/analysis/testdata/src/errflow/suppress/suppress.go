// Package efsupp documents deliberate fire-and-forget calls under
// justified directives, one on the line above and one trailing, and one
// under a reason-less directive, which is itself a diagnostic and
// suppresses nothing.
package efsupp

import "errors"

func notify() error { return errors.New("unreachable peer") }

func fireAndForget() {
	//lint:ignore errflow best-effort notification; the peer retries and failures are logged downstream
	notify()
}

func fireAndForgetTrailing() {
	notify() //lint:ignore errflow best-effort notification; the peer retries
}

func unjustified() {
	notify() //lint:ignore errflow
}
