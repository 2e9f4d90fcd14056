package telemetry

import (
	"math/rand"
	"testing"
	"time"
)

// bucket computes a bucket's start from one division; it must be the
// start now − now%width names, in the slot (now/width) mod winBuckets,
// for widths that leave a remainder at every second as well as for
// round ones.
func TestWindowBucketStart(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, span := range []time.Duration{time.Minute, 7 * time.Second, 10*time.Second + 7, 61 * time.Second, time.Hour + 1} {
		w := newWindow(span)
		nows := []time.Duration{0, w.width - 1, w.width, w.span()}
		for i := 0; i < 10000; i++ {
			nows = append(nows, time.Duration(rng.Int63n(int64(24*time.Hour))))
		}
		for _, now := range nows {
			b := w.bucket(now)
			if want := now - now%w.width; b.start != want {
				t.Fatalf("width %v, now %v: bucket start %v, want %v", w.width, now, b.start, want)
			}
			if slot := &w.ring[int(now/w.width)%winBuckets]; b != slot {
				t.Fatalf("width %v, now %v: bucket is not ring slot %d", w.width, now, int(now/w.width)%winBuckets)
			}
		}
	}
}

// bucket's shortcut — the slot it returned last, while now stays inside
// it — must leave the ring as the division alone does, on a stream that
// mostly stays in one slot but also steps to the next, jumps a whole ring
// ahead and goes back.
func TestWindowBucketShortcutMatchesDivision(t *testing.T) {
	byDivision := func(w *window, now time.Duration) *winBucket {
		k := now / w.width
		b := &w.ring[int(k)%winBuckets]
		if start := k * w.width; !b.valid || b.start != start {
			*b = winBucket{start: start, valid: true}
		}
		return b
	}
	rng := rand.New(rand.NewSource(1))
	got, want := newWindow(time.Minute), newWindow(time.Minute)
	var now time.Duration
	for i := 0; i < 100000; i++ {
		switch r := rng.Intn(100); {
		case r < 90:
			now += time.Duration(rng.Int63n(int64(got.width / 50)))
		case r < 95:
			now += got.width
		case r < 98:
			now += got.span() + time.Duration(rng.Int63n(int64(got.span())))
		default:
			now -= time.Duration(rng.Int63n(int64(now/2 + 1)))
		}
		got.bucket(now).served++
		byDivision(&want, now).served++
		if got.ring != want.ring {
			t.Fatalf("step %d, now %v: ring differs from the division's", i, now)
		}
	}
}
