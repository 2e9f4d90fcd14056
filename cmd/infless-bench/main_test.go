package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		format, storage string
		ok              bool
	}{
		{"table", "off", true},
		{"csv", "tiered", true},
		{"table", "preload", true},
		{"table", "", true},
		{"json", "off", false},
		{"", "off", false},
		{"table", "bogus", false},
	} {
		if err := checkFlags(c.format, c.storage); (err == nil) != c.ok {
			t.Errorf("-format %q -storage %q: err = %v, want ok %v", c.format, c.storage, err, c.ok)
		}
	}
}
