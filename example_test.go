package hydee_test

import (
	"context"
	"fmt"

	"hydee"
)

// ExampleNew runs a two-cluster ring under HydEE, kills a rank, and shows
// that recovery is contained to one cluster and bit-exact: build one
// engine per configuration with functional options, run under a context.
func ExampleNew() {
	ctx := context.Background()
	topo := hydee.NewTopology([]int{0, 0, 1, 1})
	base := []hydee.Option{
		hydee.WithTopology(topo),
		hydee.WithProtocol(hydee.HydEE()),
		hydee.WithModel(hydee.Myrinet10G()),
		hydee.WithCheckpointEvery(3),
	}
	cleanEng, err := hydee.New(base...)
	if err != nil {
		fmt.Println(err)
		return
	}
	clean, err := cleanEng.Run(ctx, hydee.RingProgram(9, 4096))
	if err != nil {
		fmt.Println(err)
		return
	}
	failEng, err := hydee.New(append(base, hydee.WithFailureEvents(hydee.FailureEvent{
		Ranks: []int{3},
		When:  hydee.FailureTrigger{AfterCheckpoints: 1},
	}))...)
	if err != nil {
		fmt.Println(err)
		return
	}
	failed, err := failEng.Run(ctx, hydee.RingProgram(9, 4096))
	if err != nil {
		fmt.Println(err)
		return
	}
	same := true
	for r := range clean.Results {
		if clean.Results[r] != failed.Results[r] {
			same = false
		}
	}
	fmt.Printf("rolled back %d of 4 ranks; results identical: %v\n",
		failed.Rounds[0].RolledBack, same)
	// Output:
	// rolled back 2 of 4 ranks; results identical: true
}

// ExampleCluster partitions a hand-built communication graph the way the
// paper's off-line tool does for Table I.
func ExampleCluster() {
	// Two groups of four ranks with heavy internal traffic and one weak
	// link between them.
	g := hydee.NewCommGraph(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddTraffic(i, j, 1000)
			g.AddTraffic(i+4, j+4, 1000)
		}
	}
	g.AddTraffic(3, 4, 100)
	res := hydee.Cluster(g, hydee.DefaultClusterOptions())
	fmt.Printf("clusters: %d, logged fraction: %.3f\n", res.K, res.CutFrac)
	// Output:
	// clusters: 2, logged fraction: 0.008
}
