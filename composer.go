package rasc

import (
	"fmt"
	"strings"

	"rasc.dev/rasc/internal/core"
)

// Composer identifies a composition algorithm. Submit accepts the typed
// constants below; command-line front ends turn user input into a Composer
// with ParseComposer, which round-trips with String.
type Composer string

// The composition algorithms accepted by Submit. ComposerMinCost is the
// paper's rate-splitting minimum-cost-flow composer; greedy and random are
// its two baselines. Every one of them honours catalogs with non-unit rate
// and byte ratios.
const (
	ComposerMinCost           Composer = "mincost"
	ComposerMinCostNoSplit    Composer = "mincost-nosplit"
	ComposerMinCostCPU        Composer = "mincost-cpu" // multi-resource: bandwidth + CPU
	ComposerMinCostBestEffort Composer = "mincost-besteffort"
	ComposerGreedy            Composer = "greedy"
	ComposerRandom            Composer = "random"
)

// String returns the composer's wire name — the same string ParseComposer
// accepts, so ParseComposer(c.String()) always round-trips.
func (c Composer) String() string { return string(c) }

// Composers lists every composer Submit accepts, in documentation order.
func Composers() []Composer {
	names := core.Names()
	out := make([]Composer, len(names))
	for i, n := range names {
		out[i] = Composer(n)
	}
	return out
}

// ParseComposer maps a composer name, as given on a command line or in a
// config file, to its typed constant. Unknown names return an error that
// wraps ErrUnknownComposer and lists the accepted names.
func ParseComposer(name string) (Composer, error) {
	known := Composers()
	for _, c := range known {
		if string(c) == name {
			return c, nil
		}
	}
	names := make([]string, len(known))
	for i, c := range known {
		names[i] = string(c)
	}
	return "", fmt.Errorf("%w: %q (accepted: %s)", ErrUnknownComposer, name, strings.Join(names, ", "))
}
