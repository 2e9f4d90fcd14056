package infless_test

// storage_test.go pins the facade surface of the multi-tier cold-start
// redesign: the zero value is byte-identical to no storage at all
// (disabled options are fully inert, even with Preload set),
// ArtifactSpec rejects unseedable declarations, and an enabled run
// surfaces the per-tier startup breakdown in the Report.

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	infless "github.com/tanklab/infless"
)

func TestArtifactSpecValidationNamesField(t *testing.T) {
	p, err := infless.NewPlatform(infless.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		spec  infless.ArtifactSpec
		field string
	}{
		{infless.ArtifactSpec{SizeMB: -1}, "ArtifactSpec.SizeMB"},
		{infless.ArtifactSpec{InitialTier: "tape"}, "ArtifactSpec.InitialTier"},
	}
	for _, c := range cases {
		err := p.Deploy(infless.FunctionConfig{
			Name: "f", Model: "MNIST", SLO: time.Second,
			Traffic:  infless.Traffic{RPS: 1},
			Artifact: c.spec,
		})
		var fe *infless.FieldError
		if err == nil || !errors.As(err, &fe) || fe.Field != c.field {
			t.Errorf("deploy with %+v: error %v, want FieldError on %q", c.spec, err, c.field)
		}
	}
}

// TestStorageDisabledIsInert pins the zero-value contract: with Enabled
// false, Options.Storage is completely ignored — Preload must not
// perturb the run. The two reports must be identical down to the JSON
// bytes.
func TestStorageDisabledIsInert(t *testing.T) {
	run := func(st infless.StorageOptions) []byte {
		p, err := infless.NewPlatform(infless.Options{Storage: st})
		if err != nil {
			t.Fatal(err)
		}
		err = p.Deploy(infless.FunctionConfig{
			Name: "classify", Model: "ResNet-50", SLO: 200 * time.Millisecond,
			Traffic: infless.Traffic{RPS: 60},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := p.Run(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	zero := run(infless.StorageOptions{})
	stray := run(infless.StorageOptions{Preload: true})
	if !bytes.Equal(zero, stray) {
		t.Error("disabled StorageOptions with Preload set changed the run")
	}
	if bytes.Contains(zero, []byte(`"startup"`)) {
		t.Error("disabled run reports a startup breakdown")
	}
}

// TestStorageEnabledReportsStartup checks the enabled path end to end
// through the facade: a bursty run with tiering on must record tier
// starts in the Report's startup breakdown.
func TestStorageEnabledReportsStartup(t *testing.T) {
	p, err := infless.NewPlatform(infless.Options{Storage: infless.StorageOptions{Enabled: true, Preload: true}})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Deploy(infless.FunctionConfig{
		Name: "classify", Model: "ResNet-50", SLO: 200 * time.Millisecond,
		Traffic: infless.Traffic{RPS: 40, Pattern: "bursty"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.Run(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Functions) != 1 {
		t.Fatalf("function reports: %+v", rep.Functions)
	}
	su := rep.Functions[0].Startup
	if su == nil {
		t.Fatal("enabled run has no startup breakdown")
	}
	var starts uint64
	for _, n := range su.TierStarts {
		starts += n
	}
	if starts == 0 {
		t.Error("startup breakdown has no tier starts")
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"startup"`, `"tierStarts"`, `"boot"`, `"load"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("report JSON lacks %s", key)
		}
	}
}
