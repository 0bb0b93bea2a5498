// Quickstart: optimize SqueezeNet's inference on the TX2-like
// heterogeneous platform model in a few lines — profile, search,
// report. This is the smallest end-to-end use of the public API.
package main

import (
	"fmt"
	"log"
	"sort"

	qsdnn "repro"
)

func main() {
	// 1. Pick a network from the zoo (or build your own with nn.Builder).
	net := qsdnn.MustModel("squeezenet")

	// 2. Pick a target platform model.
	board := qsdnn.NewTX2Platform()

	// 3. Run the two-phase pipeline: profile every primitive, then let
	//    the Q-learning agent search the combination space.
	rep, err := qsdnn.Optimize(net, board, qsdnn.Options{
		Mode:     qsdnn.ModeGPGPU,
		Episodes: 1000, // the paper's budget; converges in seconds here
		Seed:     1,
	})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Read the results.
	fmt.Print(rep.Summary())
	fmt.Println("\nlearned library mix:")
	mix := rep.LibraryMix()
	libs := make([]string, 0, len(mix))
	for lib := range mix {
		libs = append(libs, lib)
	}
	sort.Strings(libs)
	for _, lib := range libs {
		fmt.Printf("  %-10s %d layers\n", lib, mix[lib])
	}
}
