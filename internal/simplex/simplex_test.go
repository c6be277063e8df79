package simplex

import (
	"math"
	"math/rand"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimpleMaximize(t *testing.T) {
	// max 3x + 2y s.t. x+y <= 4, x+3y <= 6 → x=4, y=0, obj 12.
	p := NewMaximize([]float64{3, 2})
	p.AddConstraint([]float64{1, 1}, LE, 4)
	p.AddConstraint([]float64{1, 3}, LE, 6)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 12) {
		t.Fatalf("obj = %g, want 12", sol.Objective)
	}
	if !approx(sol.X[0], 4) || !approx(sol.X[1], 0) {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestSimpleMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x+y >= 10, x <= 6 → x=6, y=4, obj 24.
	p := NewMinimize([]float64{2, 3})
	p.AddConstraint([]float64{1, 1}, GE, 10)
	p.AddConstraint([]float64{1, 0}, LE, 6)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 24) {
		t.Fatalf("obj = %g, want 24", sol.Objective)
	}
}

func TestEqualityConstraint(t *testing.T) {
	// min x + 4y s.t. x + y = 5, y >= 2 → x=3, y=2, obj 11.
	p := NewMinimize([]float64{1, 4})
	p.AddConstraint([]float64{1, 1}, EQ, 5)
	p.AddConstraint([]float64{0, 1}, GE, 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0], 3) || !approx(sol.X[1], 2) {
		t.Fatalf("x = %v", sol.X)
	}
	if !approx(sol.Objective, 11) {
		t.Fatalf("obj = %g", sol.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewMinimize([]float64{1})
	p.AddConstraint([]float64{1}, GE, 5)
	p.AddConstraint([]float64{1}, LE, 3)
	if _, err := p.Solve(); err != ErrInfeasible {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewMaximize([]float64{1})
	p.AddConstraint([]float64{-1}, LE, 1) // x can grow forever
	if _, err := p.Solve(); err != ErrUnbounded {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
}

func TestNegativeRHSNormalized(t *testing.T) {
	// -x <= -3 means x >= 3; min x → 3.
	p := NewMinimize([]float64{1})
	p.AddConstraint([]float64{-1}, LE, -3)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0], 3) {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestDegenerateNoConstraints(t *testing.T) {
	// min x over x >= 0 with no constraints → 0.
	p := NewMinimize([]float64{1, 1})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 0) {
		t.Fatalf("obj = %g", sol.Objective)
	}
}

func TestRedundantEquality(t *testing.T) {
	// Two identical equalities should still solve.
	p := NewMinimize([]float64{1, 1})
	p.AddConstraint([]float64{1, 1}, EQ, 2)
	p.AddConstraint([]float64{1, 1}, EQ, 2)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.X[0]+sol.X[1], 2) {
		t.Fatalf("x = %v", sol.X)
	}
}

func TestConstraintSizeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := NewMinimize([]float64{1, 2})
	p.AddConstraint([]float64{1}, LE, 1)
}

// TestTransportationProblem solves a classic balanced transportation
// instance with a known optimum.
func TestTransportationProblem(t *testing.T) {
	// Suppliers s1=20, s2=30; consumers d1=25, d2=25.
	// Costs: s1→d1:2 s1→d2:4 s2→d1:5 s2→d2:1.
	// Optimum: s1→d1 20, s2→d1 5, s2→d2 25 → 40+25+25 = 90.
	p := NewMinimize([]float64{2, 4, 5, 1})
	p.AddConstraint([]float64{1, 1, 0, 0}, LE, 20)
	p.AddConstraint([]float64{0, 0, 1, 1}, LE, 30)
	p.AddConstraint([]float64{1, 0, 1, 0}, EQ, 25)
	p.AddConstraint([]float64{0, 1, 0, 1}, EQ, 25)
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(sol.Objective, 90) {
		t.Fatalf("obj = %g, want 90", sol.Objective)
	}
}

// TestAgainstBruteForceVertexEnumeration cross-checks random small LPs
// against enumeration of basic feasible points on a grid.
func TestAgainstBruteForce2D(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 60; trial++ {
		c := []float64{float64(rng.Intn(9) + 1), float64(rng.Intn(9) + 1)}
		p := NewMinimize(c)
		type row struct {
			a, b, rhs float64
		}
		var rows []row
		// Random ≥ constraints keep the problem feasible-or-not in a
		// way brute force can check, plus a bounding box.
		for k := 0; k < 3; k++ {
			r := row{float64(rng.Intn(5)), float64(rng.Intn(5)), float64(rng.Intn(20))}
			rows = append(rows, r)
			p.AddConstraint([]float64{r.a, r.b}, GE, r.rhs)
		}
		p.AddConstraint([]float64{1, 0}, LE, 30)
		p.AddConstraint([]float64{0, 1}, LE, 30)
		sol, err := p.Solve()
		// Brute force over a fine grid.
		best := math.Inf(1)
		feasible := false
		const step = 0.5
		for x := 0.0; x <= 30; x += step {
			for y := 0.0; y <= 30; y += step {
				ok := true
				for _, r := range rows {
					if r.a*x+r.b*y < r.rhs-1e-9 {
						ok = false
						break
					}
				}
				if ok {
					feasible = true
					if v := c[0]*x + c[1]*y; v < best {
						best = v
					}
				}
			}
		}
		if err == ErrInfeasible {
			if feasible {
				t.Fatalf("trial %d: solver infeasible but grid found a point", trial)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !feasible {
			continue // grid too coarse to certify; solver may be right
		}
		// The solver must do at least as well as the grid optimum.
		if sol.Objective > best+1e-6 {
			t.Fatalf("trial %d: solver obj %g worse than grid %g", trial, sol.Objective, best)
		}
	}
}

func BenchmarkSimplexSolve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := NewMinimize(make([]float64, 40))
		row := make([]float64, 40)
		for j := range row {
			row[j] = 1
		}
		p.AddConstraint(row, EQ, 100)
		for j := 0; j < 40; j++ {
			r := make([]float64, 40)
			r[j] = 1
			p.AddConstraint(r, LE, float64(3+j%7))
		}
		if _, err := p.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}
