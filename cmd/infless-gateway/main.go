// Command infless-gateway serves INFless as a real HTTP platform: deploy
// inference functions over REST and invoke them; batching, scheduling and
// cold starts run in (optionally accelerated) wall-clock time with
// emulated execution.
//
//	infless-gateway -addr :8080 -speed 10
//	curl -XPOST localhost:8080/system/functions \
//	     -d '{"name":"classify","model":"ResNet-50","slo":"200ms"}'
//	curl -XPOST localhost:8080/function/classify
//	curl localhost:8080/system/metrics
//	curl 'localhost:8080/system/metrics?format=prometheus'
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/tanklab/infless/internal/artifact"
	"github.com/tanklab/infless/internal/cluster"
	"github.com/tanklab/infless/internal/gateway"
	"github.com/tanklab/infless/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		servers  = flag.Int("servers", 8, "virtual cluster size")
		shards   = flag.Int("shards", 1, "control-plane shard count (placement is identical at any count)")
		speed    = flag.Float64("speed", 1, "wall-clock acceleration of emulated execution")
		idle     = flag.Duration("idle", 60*time.Second, "instance idle reclaim timeout")
		seed     = flag.Int64("seed", 1, "random seed for execution noise")
		traceOut = flag.String("trace", "", "write per-request lifecycle events as JSONL to this file (- for stderr)")
		storage  = flag.String("storage", "off", "artifact storage profile: off | tiered | preload")
	)
	flag.Parse()

	cfg := gateway.Config{
		Cluster:     cluster.New(cluster.Options{Servers: *servers, Shards: *shards}),
		SpeedFactor: *speed,
		IdleTimeout: *idle,
		Seed:        *seed,
	}
	if st, err := artifact.Profile(*storage); err != nil {
		log.Fatal("infless-gateway: ", err)
	} else if st.Enabled {
		cfg.Storage = &st
	}
	if *traceOut == "-" {
		cfg.Observer = telemetry.NewTraceWriter(os.Stderr)
	} else if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		cfg.Observer = telemetry.NewTraceWriter(f)
	}
	gw := gateway.New(cfg)
	srv := &http.Server{Addr: *addr, Handler: gw}

	// The server runs in the goroutine and main owns shutdown, not the
	// other way around: the old shape (a signal goroutine calling Close
	// behind main's back) outlived main silently and swallowed the
	// shutdown error. errCh is buffered so the serve goroutine can
	// always deliver its result and exit, even if main is mid-teardown.
	errCh := make(chan error, 1)
	go func() {
		errCh <- srv.ListenAndServe()
	}()
	log.Printf("infless-gateway listening on %s (cluster: %d servers, speed %gx)", *addr, *servers, *speed)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	var err error
	select {
	case <-sig:
		signal.Stop(sig)
		fmt.Fprintln(os.Stderr, "shutting down")
		gw.Close()
		if cerr := srv.Close(); cerr != nil {
			log.Printf("infless-gateway: close: %v", cerr)
		}
		err = <-errCh // join the serve goroutine; surfaces its exit error
	case err = <-errCh:
		gw.Close()
	}
	if err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
}
