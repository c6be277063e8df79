// Package services is the catalog of stream-processing services used by
// the examples and the experiment workload: the kinds of operators the
// paper names (filtering, projection, aggregation, transcoding, …) with
// per-unit processing costs and rate/byte ratios.
package services

import (
	"fmt"
	"time"

	"rasc.dev/rasc/internal/spec"
)

// Catalog maps service names to definitions.
type Catalog map[string]spec.ServiceDef

// Standard returns the ten unit-ratio services used in the paper-style
// experiments (10 unique services, §4.1). All have RateRatio and
// BytesRatio 1, so every stage runs at the substream's rate.
func Standard() Catalog {
	defs := []spec.ServiceDef{
		{Name: "filter", ProcPerUnit: 800 * time.Microsecond, RateRatio: 1, BytesRatio: 1},
		{Name: "project", ProcPerUnit: 600 * time.Microsecond, RateRatio: 1, BytesRatio: 1},
		{Name: "aggregate", ProcPerUnit: 1500 * time.Microsecond, RateRatio: 1, BytesRatio: 1},
		{Name: "join", ProcPerUnit: 2500 * time.Microsecond, RateRatio: 1, BytesRatio: 1},
		{Name: "transcode", ProcPerUnit: 4 * time.Millisecond, RateRatio: 1, BytesRatio: 1},
		{Name: "encrypt", ProcPerUnit: 1200 * time.Microsecond, RateRatio: 1, BytesRatio: 1},
		{Name: "compress", ProcPerUnit: 2 * time.Millisecond, RateRatio: 1, BytesRatio: 1},
		{Name: "watermark", ProcPerUnit: 1 * time.Millisecond, RateRatio: 1, BytesRatio: 1},
		{Name: "analyze", ProcPerUnit: 3 * time.Millisecond, RateRatio: 1, BytesRatio: 1},
		{Name: "annotate", ProcPerUnit: 700 * time.Microsecond, RateRatio: 1, BytesRatio: 1},
	}
	c := make(Catalog, len(defs))
	for _, d := range defs {
		c[d.Name] = d
	}
	return c
}

// Extended returns Standard plus services with non-unit rate and byte
// ratios (the paper's future-work case), which every composer honours
// through spec.Chain.
func Extended() Catalog {
	c := Standard()
	for _, d := range []spec.ServiceDef{
		{Name: "downsample", ProcPerUnit: 900 * time.Microsecond, RateRatio: 0.5, BytesRatio: 1},
		{Name: "upsample", ProcPerUnit: 900 * time.Microsecond, RateRatio: 2, BytesRatio: 1},
		{Name: "shrink", ProcPerUnit: 3 * time.Millisecond, RateRatio: 1, BytesRatio: 0.5},
	} {
		c[d.Name] = d
	}
	return c
}

// Names returns the catalog's service names in a stable order.
func (c Catalog) Names() []string {
	out := make([]string, 0, len(c))
	// Deterministic: insertion order is not stable for maps, so sort.
	for name := range c {
		out = append(out, name)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// MustGet fetches a definition or panics with a descriptive message.
func (c Catalog) MustGet(name string) spec.ServiceDef {
	d, ok := c[name]
	if !ok {
		panic(fmt.Sprintf("services: unknown service %q", name))
	}
	return d
}
