package core

// registry.go models the "register repository" of Section 4: the
// persistent store for deployed function metadata, instance
// configurations and operator profiles that faas-netes consults at
// scheduling time.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"github.com/tanklab/infless/internal/cow"
)

// RegistryEntry is one deployed function's durable record.
type RegistryEntry struct {
	Name         string        `json:"name"`
	ModelName    string        `json:"model"`
	SLO          time.Duration `json:"sloNs"`
	MaxBatchSize int           `json:"maxBatchSize"`
	Image        string        `json:"image,omitempty"`
	Handler      string        `json:"handler,omitempty"`
	DeployedAt   time.Duration `json:"deployedAtNs"` // virtual time
}

// Registry is a concurrency-safe function metadata store: a
// copy-on-write map, so Lookup, List and Len never lock and never see a
// half-applied write. The gateway calls it from deploy, delete and list
// only — dispatch resolves names in the gateway's own function table.
type Registry struct {
	entries cow.Map[RegistryEntry]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds or replaces a function record. The entry must validate
// against the model zoo.
func (r *Registry) Register(e RegistryEntry) error {
	t := TemplateFunction{
		Name:         e.Name,
		ModelName:    e.ModelName,
		SLO:          e.SLO,
		MaxBatchSize: e.MaxBatchSize,
		Image:        e.Image,
		Handler:      e.Handler,
	}
	if err := t.Validate(); err != nil {
		return err
	}
	r.entries.Update(func(next map[string]RegistryEntry) { next[e.Name] = e })
	return nil
}

// Lookup returns the record for name (lock-free).
func (r *Registry) Lookup(name string) (RegistryEntry, bool) { return r.entries.Get(name) }

// Delete removes a function record; it reports whether one existed.
func (r *Registry) Delete(name string) (existed bool) {
	r.entries.Update(func(next map[string]RegistryEntry) {
		_, existed = next[name]
		delete(next, name)
	})
	return existed
}

// List returns all records sorted by name (faasdev-cli list). The
// snapshot is consistent: concurrent writes publish whole new maps.
func (r *Registry) List() []RegistryEntry {
	out := make([]RegistryEntry, 0, r.entries.Len())
	for _, e := range r.entries.All {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Len returns the number of registered functions (lock-free).
func (r *Registry) Len() int { return r.entries.Len() }

// Save serializes the registry as JSON.
func (r *Registry) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(r.List())
}

// LoadRegistry reads a registry written by Save, validating every entry.
func LoadRegistry(rd io.Reader) (*Registry, error) {
	var entries []RegistryEntry
	if err := json.NewDecoder(rd).Decode(&entries); err != nil {
		return nil, fmt.Errorf("registry: decode: %w", err)
	}
	reg := NewRegistry()
	for _, e := range entries {
		if err := reg.Register(e); err != nil {
			return nil, fmt.Errorf("registry: entry %s: %w", e.Name, err)
		}
	}
	return reg, nil
}
