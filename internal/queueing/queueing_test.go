package queueing

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func fixedService(d time.Duration) func(int) time.Duration {
	return func(int) time.Duration { return d }
}

func TestAnalyzeValidation(t *testing.T) {
	bad := []Params{
		{Lambda: 0, B: 4, Timeout: time.Second, Service: fixedService(time.Millisecond)},
		{Lambda: 1, B: 0, Timeout: time.Second, Service: fixedService(time.Millisecond)},
		{Lambda: 1, B: 4, Timeout: 0, Service: fixedService(time.Millisecond)},
		{Lambda: 1, B: 4, Timeout: time.Second},
	}
	for i, p := range bad {
		if _, err := Analyze(p); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestMD1Limit(t *testing.T) {
	// B=1 must reduce to the textbook M/D/1: W = s + rho*s/(2(1-rho)).
	s := 10 * time.Millisecond
	res, err := Analyze(Params{Lambda: 50, B: 1, Timeout: time.Second, Service: fixedService(s)})
	if err != nil {
		t.Fatal(err)
	}
	rho := 50 * s.Seconds()
	want := s.Seconds() + rho*s.Seconds()/(2*(1-rho))
	if got := res.MeanResponse.Seconds(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("M/D/1 response = %v, want %v", got, want)
	}
	if !res.Stable || res.MeanBatchSize != 1 {
		t.Fatalf("result = %+v", res)
	}
}

func TestInstabilityDetected(t *testing.T) {
	res, err := Analyze(Params{Lambda: 200, B: 1, Timeout: time.Second, Service: fixedService(10 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable {
		t.Fatal("rho = 2 reported stable")
	}
}

func TestBatchSizeGrowsWithRate(t *testing.T) {
	svc := fixedService(5 * time.Millisecond)
	prev := 0.0
	for _, lam := range []float64{10, 50, 200, 1000} {
		res, err := Analyze(Params{Lambda: lam, B: 16, Timeout: 100 * time.Millisecond, Service: svc})
		if err != nil {
			t.Fatal(err)
		}
		if res.MeanBatchSize < prev {
			t.Fatalf("mean batch size not monotone: %v after %v", res.MeanBatchSize, prev)
		}
		prev = res.MeanBatchSize
	}
	// At 1000 RPS with a 100ms window and B=16 the batch must be full.
	if prev < 15.5 {
		t.Fatalf("high-rate mean batch = %v, want ~16", prev)
	}
}

func TestFormationWaitBounds(t *testing.T) {
	res, err := Analyze(Params{Lambda: 20, B: 8, Timeout: 100 * time.Millisecond, Service: fixedService(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanFormationWait <= 0 || res.MeanFormationWait > 100*time.Millisecond {
		t.Fatalf("formation wait %v out of (0, timeout]", res.MeanFormationWait)
	}
}

// simulateStation is a tiny standalone Monte-Carlo of the batch station,
// used to validate the analytic model (independent of internal/sim).
func simulateStation(lam float64, b int, timeout, service time.Duration, n int, seed int64) (meanWait, meanResp float64, meanBatch float64) {
	rng := rand.New(rand.NewSource(seed))
	arrivals := make([]float64, n)
	tnow := 0.0
	for i := range arrivals {
		tnow += rng.ExpFloat64() / lam
		arrivals[i] = tnow
	}
	sort.Float64s(arrivals)
	var (
		serverFree float64
		sumWait    float64
		sumResp    float64
		batches    int
	)
	i := 0
	for i < n {
		// Form a batch: head arrives, collect until full or timeout.
		head := arrivals[i]
		j := i + 1
		release := head + timeout.Seconds()
		for j < n && j-i < b && arrivals[j] <= release {
			j++
		}
		if j-i == b {
			release = arrivals[j-1]
		}
		start := math.Max(release, serverFree)
		finish := start + service.Seconds()
		serverFree = finish
		for k := i; k < j; k++ {
			sumWait += start - arrivals[k]
			sumResp += finish - arrivals[k]
		}
		batches++
		i = j
	}
	return sumWait / float64(n), sumResp / float64(n), float64(n) / float64(batches)
}

// The analytic model must track a Monte-Carlo of the same station within
// ~20% across moderate loads (BATCH's controller quality depends on it).
func TestAnalyzeMatchesMonteCarlo(t *testing.T) {
	cases := []struct {
		lam     float64
		b       int
		timeout time.Duration
		service time.Duration
	}{
		{40, 8, 100 * time.Millisecond, 20 * time.Millisecond},
		{100, 8, 80 * time.Millisecond, 15 * time.Millisecond},
		{200, 16, 60 * time.Millisecond, 25 * time.Millisecond},
		{20, 4, 150 * time.Millisecond, 30 * time.Millisecond},
	}
	for _, c := range cases {
		res, err := Analyze(Params{Lambda: c.lam, B: c.b, Timeout: c.timeout, Service: func(int) time.Duration { return c.service }})
		if err != nil {
			t.Fatal(err)
		}
		_, mcResp, mcBatch := simulateStation(c.lam, c.b, c.timeout, c.service, 200000, 1)
		if !res.Stable {
			t.Fatalf("%+v: unstable analytic result", c)
		}
		aResp := res.MeanResponse.Seconds()
		if rel := math.Abs(aResp-mcResp) / mcResp; rel > 0.25 {
			t.Errorf("lam=%v b=%d: analytic resp %.4fs vs MC %.4fs (rel %.2f)", c.lam, c.b, aResp, mcResp, rel)
		}
		if rel := math.Abs(res.MeanBatchSize-mcBatch) / mcBatch; rel > 0.15 {
			t.Errorf("lam=%v b=%d: analytic batch %.2f vs MC %.2f", c.lam, c.b, res.MeanBatchSize, mcBatch)
		}
	}
}
