package main

import (
	"fmt"
	"os"
	"path/filepath"

	"ihtl/internal/gen"
	"ihtl/internal/graph"
	"ihtl/internal/sched"
)

// inputSpec names a generated input graph. Key identifies the
// generator, its parameters and the seed; it names the cache file.
type inputSpec struct {
	Key      string
	Generate func(pool *sched.Pool) (*graph.Graph, error)
}

func rmatInput(scale, edgeFactor int, seed uint64) inputSpec {
	return inputSpec{
		Key: fmt.Sprintf("rmat-s%d-ef%d-seed%d", scale, edgeFactor, seed),
		Generate: func(pool *sched.Pool) (*graph.Graph, error) {
			cfg := gen.DefaultRMAT(scale, edgeFactor, seed)
			cfg.Pool = pool
			return gen.RMAT(cfg)
		},
	}
}

func webInput(pages, meanOutDegree int, seed uint64) inputSpec {
	return inputSpec{
		Key: fmt.Sprintf("web-n%d-d%d-seed%d", pages, meanOutDegree, seed),
		Generate: func(pool *sched.Pool) (*graph.Graph, error) {
			cfg := gen.DefaultWeb(pages, seed)
			cfg.MeanOutDegree = meanOutDegree
			cfg.Pool = pool
			return gen.Web(cfg)
		},
	}
}

// loadInput returns the graph spec describes, from dir when a cached
// copy is there and valid, otherwise generated and cached. A cache
// file that fails to load or validate is regenerated, so a torn or
// stale file never reaches a workload.
func loadInput(dir string, spec inputSpec, pool *sched.Pool) (*graph.Graph, error) {
	path := filepath.Join(dir, spec.Key+".graph")
	if g, err := graph.LoadFile(path); err == nil {
		if err := g.Validate(); err == nil && g.NumV > 0 {
			return g, nil
		}
	}
	g, err := spec.Generate(pool)
	if err != nil {
		return nil, fmt.Errorf("generating %s: %w", spec.Key, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := g.SaveFile(path); err != nil {
		return nil, fmt.Errorf("caching %s: %w", spec.Key, err)
	}
	return g, nil
}
