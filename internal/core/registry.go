package core

// registry.go models the "register repository" of Section 4: the store
// of deployed function metadata that faas-netes consults at scheduling
// time.

import (
	"sort"
	"sync"
	"time"
)

// RegistryEntry is one deployed function's durable record.
type RegistryEntry struct {
	Name         string        `json:"name"`
	ModelName    string        `json:"model"`
	SLO          time.Duration `json:"sloNs"`
	MaxBatchSize int           `json:"maxBatchSize"`
	Image        string        `json:"image,omitempty"`
	Handler      string        `json:"handler,omitempty"`
}

// Registry is a concurrency-safe function metadata store. It is written
// at human rate (deploy, delete) and read by list and the deploy
// duplicate check; no request path meets it — dispatch resolves names
// in the engine's function set.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]RegistryEntry
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{entries: map[string]RegistryEntry{}} }

// Validate checks the record against the model zoo, as a template
// function of the same fields.
func (e RegistryEntry) Validate() error {
	return TemplateFunction{
		Name:         e.Name,
		ModelName:    e.ModelName,
		SLO:          e.SLO,
		MaxBatchSize: e.MaxBatchSize,
		Image:        e.Image,
		Handler:      e.Handler,
	}.Validate()
}

// Register adds or replaces a function record. The entry must validate
// against the model zoo.
func (r *Registry) Register(e RegistryEntry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	r.mu.Lock()
	r.entries[e.Name] = e
	r.mu.Unlock()
	return nil
}

// Lookup returns the record for name.
func (r *Registry) Lookup(name string) (RegistryEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.entries[name]
	return e, ok
}

// Delete removes a function record; it reports whether one existed.
func (r *Registry) Delete(name string) (existed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	_, existed = r.entries[name]
	delete(r.entries, name)
	return existed
}

// List returns all records sorted by name (faasdev-cli list), as of one
// instant: no write lands between the first record and the last.
func (r *Registry) List() []RegistryEntry {
	r.mu.RLock()
	out := make([]RegistryEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
