package core

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func entry(name string) RegistryEntry {
	return RegistryEntry{
		Name:         name,
		ModelName:    "ResNet-50",
		SLO:          200 * time.Millisecond,
		MaxBatchSize: 32,
		Image:        "sdcbench/tfserving-infless:latest",
	}
}

func TestRegistryCRUD(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(entry("a")); err != nil {
		t.Fatal(err)
	}
	if err := r.Register(entry("b")); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Lookup("a")
	if !ok || got.ModelName != "ResNet-50" {
		t.Fatalf("lookup a: %+v %v", got, ok)
	}
	list := r.List()
	if len(list) != 2 || list[0].Name != "a" || list[1].Name != "b" {
		t.Fatalf("list = %+v", list)
	}
	if !r.Delete("a") || r.Delete("a") {
		t.Fatal("delete semantics wrong")
	}
	if _, ok := r.Lookup("a"); ok {
		t.Fatal("deleted entry still present")
	}
}

func TestRegistryRejectsInvalid(t *testing.T) {
	r := NewRegistry()
	bad := entry("x")
	bad.ModelName = "NoSuchNet"
	if err := r.Register(bad); err == nil {
		t.Fatal("invalid model accepted")
	}
	bad2 := entry("y")
	bad2.SLO = 0
	if err := r.Register(bad2); err == nil {
		t.Fatal("zero SLO accepted")
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	_ = r.Register(entry("alpha"))
	_ = r.Register(entry("beta"))
	var buf bytes.Buffer
	if err := r.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRegistry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(loaded.List()); n != 2 {
		t.Fatalf("loaded %d entries", n)
	}
	got, _ := loaded.Lookup("alpha")
	if got != entry("alpha") {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestLoadRegistryRejectsCorrupt(t *testing.T) {
	if _, err := LoadRegistry(strings.NewReader("not json")); err == nil {
		t.Fatal("corrupt input accepted")
	}
	if _, err := LoadRegistry(strings.NewReader(`[{"name":"x","model":"NoSuchNet","sloNs":1000}]`)); err == nil {
		t.Fatal("invalid entry accepted")
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := string(rune('a' + i))
			_ = r.Register(entry(name))
			r.Lookup(name)
			r.List()
		}(i)
	}
	wg.Wait()
	if n := len(r.List()); n != 8 {
		t.Fatalf("len = %d after concurrent registers", n)
	}
}
