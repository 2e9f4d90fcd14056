// Package coldstart implements keep-alive / pre-warming policies for
// serverless instances (Section 3.5 of the INFless paper):
//
//   - Fixed keep-alive (what OpenFaaS and BATCH use),
//   - HHP, the hybrid histogram policy of "Serverless in the Wild"
//     (Shahrad et al., ATC'20), which tracks idle times over one long
//     window, and
//   - LSTH, INFless's Long-Short Term Histogram policy, which blends a
//     short-term histogram (capturing bursts) with a long-term histogram
//     (capturing diurnal periodicity) via a weight gamma.
//
// All policies answer the same two questions: how long after an
// invocation should the image be dropped and later pre-loaded
// (pre-warming window), and how long should the pre-loaded image then be
// kept alive (keep-alive window). An arrival is warm iff the idle gap
// preceding it lands inside [prewarm, prewarm+keepalive].
//
// # One idle log, a cursor per window
//
// A histogram policy keeps its idle observations, exact (at, idle)
// pairs in arrival order, in one idleLog: a chain of fixed-size chunks
// that is only ever appended to. Each sliding window is a head cursor
// into that log plus the histogram of the entries from its head to the
// log's end; an entry leaves a window when it is older than the
// window's span, evaluated whenever the policy records or answers, and
// skipped outright until the log's expires bound says some head can
// have aged out. HHP has one window, which also keeps the running sums
// its cv test reads; LSTH's short and long windows are two cursors over
// the same log, the long window's entries being a superset of the short
// one's, and keep no sums. A chunk that every cursor has left goes to a
// free list and is the next one appended to, so recording copies
// nothing and a policy holds as many chunks as its longest window's
// population needs, however long the run.
//
// Memory follows what a policy has observed, not the spans it could
// observe: a histogram's bins grow only up to the highest one an
// observation has reached, so a new policy holds one empty chunk and a
// few small headers, and a function whose gaps stay under a second
// keeps one bin per window.
//
// # Windows and Decide
//
// With multi-tier artifact loading (internal/artifact) an idle function's
// checkpoint can be demoted down the storage hierarchy instead of evicted
// outright. Every policy therefore also answers Decide(now) with a
// Decision (tier.go): the prewarm/keep-alive windows plus the tier the
// artifact parks at once the keep-alive window closes and how long it
// stays there. Fixed and HHP decide in the legacy shape of their
// Windows; LSTH's Decision.KeepAlive may be shorter than its Windows
// keep-alive because the DRAM pause tier covers the distribution's tail
// at a fraction of the resident cost. LegacyTier(p) pins the
// kill-the-container, artifact-on-SSD shape even for LSTH, which is how
// fig16t isolates the effect of tiering. Evaluate replays a trace
// against any policy's Decisions.
package coldstart

import (
	"fmt"
	"math"
	"time"
)

// Policy decides pre-warming and keep-alive windows from observed
// function idle times. Implementations are not safe for concurrent use;
// the simulation engine owns one policy per function.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// RecordIdle feeds one completed idle gap (time between the end of
	// an invocation burst and the next invocation), observed at virtual
	// time now.
	RecordIdle(idle time.Duration, now time.Duration)
	// Windows returns the current pre-warming and keep-alive windows at
	// virtual time now.
	Windows(now time.Duration) (prewarm, keepalive time.Duration)
	// Decide returns the tier-aware ruling at virtual time now.
	Decide(now time.Duration) Decision
}

// BinWidth is the histogram resolution. The ATC'20 paper uses 1-minute
// bins; inference traffic is denser, so we use 1-second bins.
const BinWidth = time.Second

// Hist is a fixed-width histogram of idle durations. Its bins grow on
// demand: bins covers the bins up to the highest one observed so far,
// and every bin past it, up to the open-ended last one, is zero.
type Hist struct {
	bins  []int
	total int
	last  int // index of the open-ended last bin: durations >= last·BinWidth land there
}

// NewHist creates an empty histogram of 1-second bins whose last bin
// holds every duration of span or more. It allocates no bins: Observe
// grows them as far as the observations reach.
func NewHist(span time.Duration) *Hist {
	return &Hist{last: max(int(span/BinWidth), 1)}
}

func (h *Hist) idx(d time.Duration) int {
	return min(max(int(d/BinWidth), 0), h.last)
}

// Observe adds one idle duration.
func (h *Hist) Observe(d time.Duration) {
	i := h.idx(d)
	// Bins never shrink, so a histogram appends at most last+1 of them
	// in its life; a loop of appends keeps Observe inlinable.
	for len(h.bins) <= i {
		h.bins = append(h.bins, 0)
	}
	h.bins[i]++
	h.total++
}

// Remove deletes one previously observed duration (used by sliding
// windows). Removing an unobserved value panics: callers only ever remove
// what they added.
func (h *Hist) Remove(d time.Duration) {
	i := h.idx(d)
	if i >= len(h.bins) || h.bins[i] == 0 {
		panic("coldstart: removing unobserved duration")
	}
	h.bins[i]--
	h.total--
}

// Total returns the number of observations currently recorded.
func (h *Hist) Total() int { return h.total }

// Percentile returns the upper edge of the smallest bin at which the
// cumulative distribution reaches q (0 < q <= 1). It returns 0 when the
// histogram is empty.
func (h *Hist) Percentile(q float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		q = 1e-9
	}
	if q > 1 {
		q = 1
	}
	need := int(q * float64(h.total))
	if need < 1 {
		need = 1
	}
	cum := 0
	for i, n := range h.bins {
		cum += n
		if cum >= need {
			return time.Duration(i+1) * BinWidth
		}
	}
	return time.Duration(h.last+1) * BinWidth
}

// idleChunkLen makes an idleChunk fill one 4096-byte allocation: 255
// 16-byte entries plus the link.
const idleChunkLen = 255

type idleEntry struct {
	at   time.Duration
	idle time.Duration
}

type idleChunk struct {
	entries [idleChunkLen]idleEntry
	next    *idleChunk
}

// idleLog is a policy's one record of its idle observations and the
// windows over it (see the package comment): a chain of chunks from
// first to tail, and the chunks every window's head has left, on free.
type idleLog struct {
	wins    []*windowed
	first   *idleChunk // oldest chunk a window's head may still be in
	tail    *idleChunk // chunk being filled; it always has room
	n       int        // entries in tail
	free    *idleChunk
	expires time.Duration // no window has an entry to evict while now <= expires
}

// windowed is a sliding-window histogram over an idleLog: observations
// expire once they fall out of the window.
type windowed struct {
	hist   *Hist
	window time.Duration
	chunk  *idleChunk // head: the oldest live entry is chunk.entries[head],
	head   int        // or the log's end when the window is empty
	mom    *moments   // nil unless the policy reads cv
}

// moments are the running sums, in seconds, over a window's live
// observations that cv reads.
type moments struct{ sum, sumSq float64 }

// newIdleLog creates an empty log with one window per duration,
// shortest first; each window keeps moments if withMoments is set.
func newIdleLog(withMoments bool, windows ...time.Duration) *idleLog {
	c := new(idleChunk)
	g := &idleLog{first: c, tail: c, expires: math.MaxInt64}
	for _, d := range windows {
		w := &windowed{hist: NewHist(d), window: d, chunk: c}
		if withMoments {
			w.mom = new(moments)
		}
		g.wins = append(g.wins, w)
	}
	return g
}

// record expires what has left each window as of now, then admits one
// observation to all of them. The new entry is the first to age out of
// any window that was empty, so expires drops to now plus the shortest
// window at the latest.
func (g *idleLog) record(idle, now time.Duration) {
	g.evict(now)
	g.tail.entries[g.n] = idleEntry{at: now, idle: idle}
	g.n++
	if g.n == idleChunkLen {
		c := g.free
		if c != nil {
			g.free, c.next = c.next, nil
		} else {
			// Free-list miss: only while the longest window's population
			// is still growing.
			c = new(idleChunk)
		}
		g.tail.next, g.tail, g.n = c, c, 0
	}
	g.expires = min(g.expires, now+g.wins[0].window)
	for _, w := range g.wins {
		w.hist.Observe(idle)
		if m := w.mom; m != nil {
			s := idle.Seconds()
			m.sum += s
			m.sumSq += s * s
		}
	}
}

// evict advances every window's head past the entries older than its
// span and recycles the chunks no head is in any more. Until expires it
// has nothing to do, and inlines to that one comparison.
func (g *idleLog) evict(now time.Duration) {
	if now > g.expires {
		g.expire(now)
	}
}

// expire is evict's work: it moves the heads, frees the chunks they
// left and sets expires to the first instant a head can age out.
func (g *idleLog) expire(now time.Duration) {
	g.expires = math.MaxInt64
	for _, w := range g.wins {
		for w.chunk != g.tail || w.head != g.n {
			e := w.chunk.entries[w.head]
			if e.at >= now-w.window {
				g.expires = min(g.expires, e.at+w.window)
				break
			}
			w.hist.Remove(e.idle)
			if m := w.mom; m != nil {
				s := e.idle.Seconds()
				m.sum -= s
				m.sumSq -= s * s
			}
			if w.head++; w.head == idleChunkLen {
				w.chunk, w.head = w.chunk.next, 0
			}
		}
	}
	for g.first != g.tail && !g.reads(g.first) {
		c := g.first
		g.first = c.next
		c.next, g.free = g.free, c
	}
}

// reads reports whether some window's head is in chunk c.
func (g *idleLog) reads(c *idleChunk) bool {
	for _, w := range g.wins {
		if w.chunk == c {
			return true
		}
	}
	return false
}

// cv returns the coefficient of variation of the live observations; 0 for
// fewer than two samples. Only a window with moments answers it.
func (w *windowed) cv() float64 {
	n := float64(w.hist.Total())
	if n < 2 {
		return 0
	}
	mean := w.mom.sum / n
	if mean <= 0 {
		return 0
	}
	variance := w.mom.sumSq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return math.Sqrt(variance) / mean
}

// Fixed is the fixed keep-alive policy used by OpenFaaS⁺ and BATCH in the
// paper's comparison (Table 3): no pre-warming, constant keep-alive.
type Fixed struct {
	KeepAlive time.Duration
}

// DefaultFixedKeepAlive is the paper's OpenFaaS⁺ setting (300 seconds).
const DefaultFixedKeepAlive = 300 * time.Second

func (f Fixed) Name() string                            { return "fixed" }
func (f Fixed) RecordIdle(time.Duration, time.Duration) {}
func (f Fixed) Windows(time.Duration) (time.Duration, time.Duration) {
	return 0, f.KeepAlive
}

// Profiled policy parameters (Section 3.5). They are fixed inside the
// platform: no caller sets any of them differently.
const (
	hhpWindow = 4 * time.Hour // HHP tracking duration (ATC'20)
	// hhpCVLimit is the representativeness criterion of the original
	// ATC'20 policy: when the idle-time distribution's coefficient of
	// variation exceeds it, the histogram is deemed non-representative and
	// HHP reverts to the conservative fixed keep-alive. Inference traffic
	// with mixed long-term and short-term patterns trips this often — the
	// behavior the INFless paper criticizes as "so conservative that it
	// generates too much resource waste".
	hhpCVLimit = 2.0

	lsthShortWindow = time.Hour
	lsthLongWindow  = 24 * time.Hour
	lsthGamma       = 0.5
	// pausePct and pauseFactor shape LSTH's tier-aware Decide (tier.go):
	// the blended pausePct percentile sets the full-warm keep-alive and
	// pauseFactor times the blended tail bounds the DRAM pause stage.
	// They never affect Windows.
	pausePct    = 0.50
	pauseFactor = 2.0

	// Shared by HHP and LSTH: the head of the idle-time distribution
	// selects the pre-warming window and the tail the keep-alive window;
	// below minSamples both fall back to DefaultFixedKeepAlive.
	headPct    = 0.05
	tailPct    = 0.99
	minSamples = 10
)

// HHP is the hybrid histogram policy of ATC'20: one histogram over a
// 4-hour tracking duration; the head of the idle-time distribution
// selects the pre-warming window and the tail the keep-alive window.
// Until enough samples accrue it falls back to a conservative fixed
// keep-alive.
type HHP struct {
	log *idleLog
	win *windowed
}

// NewHHP creates an HHP policy.
func NewHHP() *HHP {
	log := newIdleLog(true, hhpWindow)
	return &HHP{log: log, win: log.wins[0]}
}

func (h *HHP) Name() string { return "hhp" }

func (h *HHP) RecordIdle(idle, now time.Duration) { h.log.record(idle, now) }

func (h *HHP) Windows(now time.Duration) (time.Duration, time.Duration) {
	h.log.evict(now)
	if h.win.hist.Total() < minSamples || h.win.cv() > hhpCVLimit {
		return 0, DefaultFixedKeepAlive
	}
	head := h.win.hist.Percentile(headPct)
	tail := h.win.hist.Percentile(tailPct)
	// Pre-warming must leave room for loading the image; the head bin's
	// lower edge is the safe pre-warm point.
	prewarm := head - BinWidth
	if prewarm < 0 {
		prewarm = 0
	}
	return prewarm, tail
}

// LSTH is INFless's Long-Short Term Histogram policy: it maintains a
// short-duration histogram (1 hour, capturing short-term bursts) and a
// long-duration histogram (24 hours, capturing long-term periodicity)
// and blends their head/tail windows with weight gamma:
//
//	prewarm   = gamma*L_prewarm   + (1-gamma)*S_prewarm
//	keepalive = gamma*L_keepalive + (1-gamma)*S_keepalive
type LSTH struct {
	log   *idleLog // one log, two cursors: short's live entries are the newest of long's
	short *windowed
	long  *windowed
	gamma float64
}

// LSTHOptions configure an LSTH policy.
type LSTHOptions struct {
	// Gamma is the long-term weight; zero takes the paper default 0.5.
	Gamma float64
}

// NewLSTH creates an LSTH policy. Gamma must lie in [0,1]; the paper
// evaluates {0.3, 0.5, 0.7} and defaults to 0.5.
func NewLSTH(opts LSTHOptions) *LSTH {
	if opts.Gamma == 0 {
		opts.Gamma = lsthGamma
	}
	if opts.Gamma < 0 || opts.Gamma > 1 {
		panic(fmt.Sprintf("coldstart: gamma %f out of [0,1]", opts.Gamma))
	}
	log := newIdleLog(false, lsthShortWindow, lsthLongWindow)
	return &LSTH{log: log, short: log.wins[0], long: log.wins[1], gamma: opts.Gamma}
}

func (l *LSTH) Name() string { return fmt.Sprintf("lsth(γ=%.1f)", l.gamma) }

func (l *LSTH) RecordIdle(idle, now time.Duration) { l.log.record(idle, now) }

func (l *LSTH) Windows(now time.Duration) (time.Duration, time.Duration) {
	l.log.evict(now)
	if l.long.hist.Total() < minSamples {
		return 0, DefaultFixedKeepAlive
	}
	lPre := l.long.hist.Percentile(headPct) - BinWidth
	lKeep := l.long.hist.Percentile(tailPct)
	sPre := l.short.hist.Percentile(headPct) - BinWidth
	sKeep := l.short.hist.Percentile(tailPct)
	if l.short.hist.Total() < minSamples {
		// Quiet recent period: trust the long-term view alone.
		sPre, sKeep = lPre, lKeep
	}
	if lPre < 0 {
		lPre = 0
	}
	if sPre < 0 {
		sPre = 0
	}
	pre := time.Duration(l.gamma*float64(lPre) + (1-l.gamma)*float64(sPre))
	keep := time.Duration(l.gamma*float64(lKeep) + (1-l.gamma)*float64(sKeep))
	return pre, keep
}
