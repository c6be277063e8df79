package experiment

import "testing"

// TestRunFederation drives the federation scenario at smoke size: a
// two-cluster federation with a partitioned catalog must complete
// cross-boundary hand-offs without losing requests the flat baseline
// composes, and must never oversubscribe a boundary link.
func TestRunFederation(t *testing.T) {
	res, err := RunFederation(FederationConfig{
		Nodes:    12,
		Clusters: 2,
		Seeds:    []int64{1},
		Requests: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	fed := res.Aggregate(func(r FederationRun) FederationCell { return r.Federated })
	flat := res.Aggregate(func(r FederationRun) FederationCell { return r.Flat })
	if fed.CrossCluster == 0 {
		t.Fatal("no request crossed a cluster boundary: the partitioned catalog should force hand-offs")
	}
	if fed.HandoffsOK == 0 || fed.HandoffSuccessRate() < 1 {
		t.Fatalf("hand-offs ok=%d failed=%d saturated=%d, want all attempts committed",
			fed.HandoffsOK, fed.HandoffsFailed, fed.HandoffsSaturated)
	}
	if fed.MaxBoundaryUtilization > 1 {
		t.Fatalf("boundary link oversubscribed: utilization %.3f", fed.MaxBoundaryUtilization)
	}
	if fed.Composed < flat.Composed {
		t.Fatalf("federated composed %d/%d, flat %d/%d: federation lost requests the flat solver places",
			fed.Composed, fed.Submitted, flat.Composed, flat.Submitted)
	}
	if fed.Received == 0 {
		t.Fatal("no units delivered in the federated deployment")
	}
}

// TestRunFederationRejectsFlat pins the config guard: a "federation"
// comparison with fewer than two clusters is a misconfiguration.
func TestRunFederationRejectsFlat(t *testing.T) {
	if _, err := RunFederation(FederationConfig{Clusters: 1}); err == nil {
		t.Fatal("RunFederation accepted a single-cluster comparison")
	}
}
