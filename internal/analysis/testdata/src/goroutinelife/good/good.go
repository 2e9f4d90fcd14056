// Package glgood spawns goroutines the analyzer can prove terminate:
// quit-channel selects, ranges over channels with a close owner,
// context-driven loops, bounded loops, and the buffered variant of the
// timeout shape.
package glgood

import (
	"context"
	"sync"
	"time"
)

var counter int

func bump() { counter++ }

func compute() int { return 42 }

// worker exits when stop closes quit — the instance.loop shape.
type worker struct{ quit chan struct{} }

func (w *worker) stop() { close(w.quit) }

func (w *worker) run() {
	for {
		select {
		case <-w.quit:
			return
		default:
			bump()
		}
	}
}

func spawnWorker() *worker {
	w := &worker{quit: make(chan struct{})}
	go w.run()
	return w
}

// pacer is the gateway Server shape: the field is receive-only and the
// one close sits in a sync.OnceFunc over the constructor's local.
type pacer struct {
	quit <-chan struct{}
	stop func()
}

func (p *pacer) run() {
	for {
		select {
		case <-p.quit:
			return
		default:
			bump()
		}
	}
}

func spawnPacer() *pacer {
	ch := make(chan struct{})
	p := &pacer{quit: ch, stop: sync.OnceFunc(func() { close(ch) })}
	go p.run()
	return p
}

// drainPool is the FitPool shape: workers range the feed, the owner
// closes it.
func drainPool(vs []int) {
	jobs := make(chan int, len(vs))
	for i := 0; i < 3; i++ {
		go func() {
			for range jobs {
				bump()
			}
		}()
	}
	for _, v := range vs {
		jobs <- v
	}
	close(jobs)
}

// ctxSelect exits via ctx.Done().
func ctxSelect(ctx context.Context) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Millisecond):
				bump()
			}
		}
	}()
}

// ctxCond is the loadgen runClosed shape: the loop condition consults
// ctx.Err().
func ctxCond(ctx context.Context) {
	go func() {
		for ctx.Err() == nil {
			bump()
		}
	}()
}

// bounded loops terminate by construction.
func bounded(vs []int) {
	go func() {
		for i := 0; i < 10; i++ {
			bump()
		}
		for range vs {
			bump()
		}
	}()
}

// bufferedResult is the timeout shape done right: the result channel is
// buffered, so the sender finishes even if the receiver gave up.
func bufferedResult() int {
	res := make(chan int, 1)
	go func() {
		res <- compute()
	}()
	select {
	case v := <-res:
		return v
	case <-time.After(time.Millisecond):
		return -1
	}
}
