package infless

import (
	"fmt"
	"time"

	"github.com/tanklab/infless/internal/model"
	"github.com/tanklab/infless/internal/scenario"
)

// ChainConfig declares an inference function chain (pipeline): each
// request flows through every stage in order, and the end-to-end latency
// must stay within SLO. This implements the paper's stated future-work
// direction ("optimize the performance of inference function chains"):
// the platform splits the end-to-end SLO across stages in proportion to
// each stage's predicted execution time, then manages every stage with
// the usual non-uniform batching and scheduling machinery.
type ChainConfig struct {
	Name string
	// Models lists the stage models in pipeline order (at least two).
	Models []string
	// SLO is the end-to-end latency target for the whole chain.
	SLO time.Duration
	// Traffic drives the first stage; completions feed each next stage.
	Traffic Traffic
}

// DeployChain registers a function chain; call before Run. Every stage
// is checked before any is deployed, so a rejected chain leaves the
// platform as it was.
func (p *Platform) DeployChain(cfg ChainConfig) error {
	if err := cfg.validate(); err != nil {
		return err
	}

	// Split 80% of the end-to-end SLO across stages proportionally to
	// each stage's minimum achievable execution time: heavier models get
	// more budget, every stage keeps at least 10% of the total, and the
	// remaining 20% is slack — each stage's batching deliberately runs
	// close to its own budget, so summed stage budgets need headroom to
	// keep the end-to-end tail inside the target.
	weights := make([]float64, len(cfg.Models))
	var sum float64
	for i, name := range cfg.Models {
		m := model.Get(name)
		if m == nil {
			return &FieldError{"ChainConfig.Models", name, "unknown model (see infless.Models())"}
		}
		weights[i] = float64(m.MinExecTime(8))
		sum += weights[i]
	}
	stageSLOs := make([]time.Duration, len(cfg.Models))
	var allocated time.Duration
	for i, w := range weights {
		stageSLOs[i] = time.Duration(max(w/sum, 0.10) * float64(cfg.SLO))
		allocated += stageSLOs[i]
	}
	// Normalize so stage budgets sum to 80% of the end-to-end target.
	budget := time.Duration(0.8 * float64(cfg.SLO))
	stages := make([]scenario.Function, len(cfg.Models))
	for i, name := range cfg.Models {
		stageSLOs[i] = time.Duration(float64(stageSLOs[i]) * float64(budget) / float64(max(allocated, 1)))
		if stageSLOs[i] <= 0 {
			return &FieldError{"ChainConfig.SLO", cfg.SLO,
				fmt.Sprintf("too small to split across %d stages", len(cfg.Models))}
		}
		fn, err := p.admit(FunctionConfig{
			Name:    fmt.Sprintf("%s-%d-%s", cfg.Name, i, name),
			Model:   name,
			SLO:     stageSLOs[i],
			Traffic: cfg.Traffic,
		})
		if err != nil {
			return err
		}
		if i+1 < len(cfg.Models) {
			fn.ForwardTo = fmt.Sprintf("%s-%d-%s", cfg.Name, i+1, cfg.Models[i+1])
		} else {
			fn.ChainSLO = cfg.SLO
		}
		if i > 0 {
			fn.Traffic = scenario.Traffic{} // fed by the stage before
		}
		stages[i] = fn
	}
	p.fns = append(p.fns, stages...)
	return nil
}

// ChainReport summarizes end-to-end chain behavior after Run.
type ChainReport struct {
	Tail             string // name of the chain's final stage
	SLO              time.Duration
	Served           uint64
	Dropped          uint64
	SLOViolationRate float64
	MeanLatency      time.Duration
	P99Latency       time.Duration
}

// Chains returns end-to-end reports for every deployed chain. Only valid
// after Run.
func (p *Platform) Chains() []ChainReport {
	if p.res == nil {
		return nil
	}
	var out []ChainReport
	for _, f := range p.res.Functions {
		if f.ChainRecorder == nil {
			continue
		}
		out = append(out, ChainReport{
			Tail:             f.Spec.Name,
			SLO:              f.ChainRecorder.SLO(),
			Served:           f.ChainRecorder.Served(),
			Dropped:          f.ChainRecorder.Dropped(),
			SLOViolationRate: f.ChainRecorder.ViolationRate(),
			MeanLatency:      f.ChainRecorder.Mean(),
			P99Latency:       f.ChainRecorder.Percentile(0.99),
		})
	}
	return out
}
