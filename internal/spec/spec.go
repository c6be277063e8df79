// Package spec defines the application model of §2.2: service definitions
// with requirement vectors, and service requests — a request graph of
// substreams plus the rate requirement vector r_req.
package spec

import (
	"errors"
	"fmt"
	"time"
)

// ServiceDef describes a stream-processing service (the function a
// component instantiates).
type ServiceDef struct {
	// Name is the service's global identifier (hashed for discovery).
	Name string `json:"name"`
	// ProcPerUnit is the CPU time to process one data unit on a
	// reference node (t_ci at speed factor 1).
	ProcPerUnit time.Duration `json:"procPerUnit"`
	// RateRatio is R_ci = r_out/r_in. The min-cost composer requires 1;
	// the LP composer accepts any positive value.
	RateRatio float64 `json:"rateRatio"`
	// BytesRatio scales the output data unit size relative to the input
	// (e.g. 0.5 for a transcoder halving the bit rate).
	BytesRatio float64 `json:"bytesRatio"`
}

// Priority is an application's tenancy class. It decides the weight the
// water-filling fairness allocator gives the application when aggregate
// demand exceeds cluster capacity, and the preemption order under
// contention: BestEffort tenants are downgraded or parked before Standard
// ones, and Standard before Critical. The zero value is Standard, so
// requests that predate multi-tenancy keep their behavior.
type Priority int

const (
	// Standard is the default class: weighted fairly against other
	// Standard tenants, above BestEffort, below Critical.
	Standard Priority = iota
	// Critical tenants get the largest fairness weight and are the last
	// to be downgraded or preempted under contention.
	Critical
	// BestEffort tenants absorb contention first: they get the smallest
	// fairness weight and are the first preempted into the admission
	// queue.
	BestEffort
)

// String returns the flag/JSON label of the class.
func (p Priority) String() string {
	switch p {
	case Critical:
		return "critical"
	case Standard:
		return "standard"
	case BestEffort:
		return "best-effort"
	}
	return "unknown"
}

// Rank orders classes for preemption: higher outranks lower. Critical=2,
// Standard=1, BestEffort=0.
func (p Priority) Rank() int {
	switch p {
	case Critical:
		return 2
	case Standard:
		return 1
	}
	return 0
}

// ParsePriority converts a flag/JSON label back into a Priority. The
// empty string is Standard (the default class).
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "standard":
		return Standard, nil
	case "critical":
		return Critical, nil
	case "best-effort", "besteffort":
		return BestEffort, nil
	}
	return Standard, fmt.Errorf("spec: unknown priority %q (want critical, standard or best-effort)", s)
}

// MarshalJSON writes the class label, keeping workload files readable.
func (p Priority) MarshalJSON() ([]byte, error) {
	return []byte(`"` + p.String() + `"`), nil
}

// UnmarshalJSON accepts a class label (or null for the default).
func (p *Priority) UnmarshalJSON(b []byte) error {
	s := string(b)
	if s == "null" {
		*p = Standard
		return nil
	}
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	v, err := ParsePriority(s)
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// Substream is one sequential chain of services in a request graph,
// terminating at the destination.
type Substream struct {
	// Services lists the chain in processing order.
	Services []string `json:"services"`
	// Rate is the required delivery rate r_req_l in data units per
	// second.
	Rate int `json:"rate"`
	// Burstiness makes the source variable-bit-rate: unit sizes vary
	// uniformly within ±Burstiness of the request's UnitBytes while the
	// unit rate stays constant — a constant-frame-rate, variable-frame-
	// size video model. 0 (the default) is constant bit rate; values
	// must lie in [0, 1).
	Burstiness float64 `json:"burstiness,omitempty"`
}

// Request is a user's stream-processing request req = <G_req, r_req>.
type Request struct {
	// ID names the request (unique within an experiment).
	ID string `json:"id"`
	// Substreams are the request graph's parallel chains.
	Substreams []Substream `json:"substreams"`
	// UnitBytes is the application's data unit size in bytes (the mean
	// size for bursty substreams).
	UnitBytes int `json:"unitBytes"`
	// PlayoutDelay, when positive, enables the media playout model at
	// the destination: playback of each substream starts PlayoutDelay
	// after its first unit arrives and consumes one unit per period;
	// a unit arriving after its playback deadline causes a rebuffering
	// stall (counted by the sink), after which playback restarts with
	// the same delay.
	PlayoutDelay time.Duration `json:"playoutDelay,omitempty"`
	// Priority is the application's tenancy class (default Standard),
	// consulted by the admission gate and the weighted max-min fairness
	// allocator when concurrent applications contend for capacity.
	Priority Priority `json:"priority,omitempty"`
	// Cluster pins the request to a federation cluster: composition
	// prefers placements inside it and only hands substreams across a
	// boundary when the cluster cannot carry them. Empty means "the
	// origin node's own cluster" (and is a no-op in flat deployments).
	Cluster string `json:"cluster,omitempty"`
}

// MaxRequestIDBytes is the longest request ID the data-unit wire format
// can frame (a u8 length prefix).
const MaxRequestIDBytes = 255

// ErrRequestIDTooLong reports a request whose ID exceeds
// MaxRequestIDBytes. Match it with errors.Is.
var ErrRequestIDTooLong = errors.New("spec: request ID longer than 255 bytes")

// Validate checks structural sanity.
func (r Request) Validate() error {
	if r.ID == "" {
		return errors.New("spec: request needs an ID")
	}
	if len(r.ID) > MaxRequestIDBytes {
		return fmt.Errorf("%w (%d)", ErrRequestIDTooLong, len(r.ID))
	}
	if r.UnitBytes <= 0 {
		return fmt.Errorf("spec: request %s: unit size %d must be positive", r.ID, r.UnitBytes)
	}
	if len(r.Substreams) == 0 {
		return fmt.Errorf("spec: request %s has no substreams", r.ID)
	}
	for i, ss := range r.Substreams {
		if len(ss.Services) == 0 {
			return fmt.Errorf("spec: request %s substream %d has no services", r.ID, i)
		}
		if ss.Rate <= 0 {
			return fmt.Errorf("spec: request %s substream %d rate %d must be positive", r.ID, i, ss.Rate)
		}
		if ss.Burstiness < 0 || ss.Burstiness >= 1 {
			return fmt.Errorf("spec: request %s substream %d burstiness %g outside [0,1)", r.ID, i, ss.Burstiness)
		}
	}
	if r.PlayoutDelay < 0 {
		return fmt.Errorf("spec: request %s negative playout delay", r.ID)
	}
	switch r.Priority {
	case Standard, Critical, BestEffort:
	default:
		return fmt.Errorf("spec: request %s has unknown priority %d", r.ID, r.Priority)
	}
	return nil
}

// Services returns the set of distinct services the request invokes.
func (r Request) Services() []string {
	seen := make(map[string]bool)
	var out []string
	for _, ss := range r.Substreams {
		for _, s := range ss.Services {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
	}
	return out
}

// TotalRate sums the substream rates (units per second).
func (r Request) TotalRate() int {
	total := 0
	for _, ss := range r.Substreams {
		total += ss.Rate
	}
	return total
}

// BitsPerSecond converts a rate in units/sec to bits/sec for this request's
// unit size.
func (r Request) BitsPerSecond(rate int) float64 {
	return float64(rate) * float64(r.UnitBytes) * 8
}
