package rasc

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	"rasc.dev/rasc/internal/spec"
)

// TestRatioChainsDeliverTheRequestedRate checks that a substream's Rate is
// the rate delivered at the sink whatever the chain's rate ratios: a
// downsample (R = 0.5) or upsample (R = 2) stage makes the source emit
// twice or half the requested rate, and the sink still receives 10
// units/s, on every composer that places whole chains. Stats counts the
// emissions in sink units, so the delivered fraction reads 1 too.
func TestRatioChainsDeliverTheRequestedRate(t *testing.T) {
	const (
		rate   = 10
		window = 20 * time.Second
		slack  = 0.3 // units/s
		// fracSlack covers the units still in flight when Stats reads.
		fracSlack = 0.03
	)
	for _, composer := range []Composer{ComposerMinCost, ComposerGreedy, ComposerRandom} {
		for _, chain := range [][]string{
			{"downsample", "filter"},
			{"upsample", "filter"},
			{"filter", "downsample"},
		} {
			name := composer.String() + "/" + strings.Join(chain, "-")
			t.Run(name, func(t *testing.T) {
				sys := New(WithNodes(16), WithSeed(7), WithCatalog(ExtendedCatalog()))
				comp, err := sys.Submit(0, Request{
					ID:         "ratio-" + name,
					UnitBytes:  1250,
					Substreams: []Substream{{Services: chain, Rate: rate}},
				}, composer)
				if err != nil {
					t.Fatal(err)
				}
				sys.Run(5 * time.Second) // past the first units' path fill
				before := comp.Stats().Received
				sys.Run(window)
				got := float64(comp.Stats().Received-before) / window.Seconds()
				if got < rate-slack || got > rate+slack {
					t.Fatalf("delivered %.2f units/s, want %d ± %.1f", got, rate, slack)
				}
				if f := comp.Stats().DeliveredFraction(); math.Abs(f-1) > fracSlack {
					t.Fatalf("delivered fraction %.3f, want 1 ± %.2f", f, fracSlack)
				}
			})
		}
	}
}

// TestSubmitRefusesUnboundedRateRatio: the origin checks the requested
// services' catalogue entries against the bound hosts enforce on an
// instantiate, so a ratio no host would accept fails the Submit itself.
func TestSubmitRefusesUnboundedRateRatio(t *testing.T) {
	for _, ratio := range []float64{math.Inf(1), 2 * spec.MaxRateRatio, math.NaN()} {
		cat := ExtendedCatalog()
		cat["explode"] = ServiceDef{Name: "explode", ProcPerUnit: time.Millisecond, RateRatio: ratio}
		sys := New(WithNodes(8), WithSeed(1), WithCatalog(cat))
		_, err := sys.Submit(0, Request{
			ID:         "explode",
			UnitBytes:  1250,
			Substreams: []Substream{{Services: []string{"filter", "explode"}, Rate: 5}},
		}, ComposerMinCost)
		if !errors.Is(err, spec.ErrInvalidService) {
			t.Fatalf("rate ratio %g: err = %v, want spec.ErrInvalidService", ratio, err)
		}
	}
}
