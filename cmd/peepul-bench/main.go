// Command peepul-bench regenerates every figure and table of the paper's
// evaluation (§7):
//
//	peepul-bench                 # everything, paper-scale sweeps
//	peepul-bench -fig 12         # one figure
//	peepul-bench -fig sync       # sync cost: wire bytes per exchange vs history length
//	peepul-bench -fig dag        # DAG scaling: merge cost vs history length
//	peepul-bench -fig space      # pack layer: resident + sync bytes vs full snapshots
//	peepul-bench -fig durable    # disk log: commit latency, recovery time, footprint
//	peepul-bench -fig mesh       # always-on fleets: converge/propagate latency, idle cost
//	peepul-bench -fig recon      # set reconciliation: converged and diverged wire cost
//	peepul-bench -fig chaos      # fault recovery: converge-after-heal vs loss and partitions
//	peepul-bench -fig obs        # instrumentation overhead: WithObservability vs disabled
//	peepul-bench -quick          # reduced sweeps for a fast sanity pass
//	peepul-bench -seed 7         # different workload seed
//	peepul-bench -fig table3 -type queue   # certification effort, one type
//
// The dag, space, durable, mesh, recon and chaos figures additionally
// write their rows as JSON (default BENCH_dag.json / BENCH_space.json /
// BENCH_durable.json / BENCH_mesh.json / BENCH_recon.json /
// BENCH_chaos.json, see -dag-out
// / -space-out / -durable-out / -mesh-out / -recon-out / -chaos-out) so CI can
// archive the perf trajectory. -durable-flat-factor N turns the durable figure into a
// regression gate: the run fails if recovery at the deepest swept
// history takes more than N times the shallowest — checkpointed
// recovery is supposed to be flat in depth. -recon-gate turns the recon
// figure into a regression gate: the run fails unless the converged
// re-sync at the deepest swept history ships zero commits within a
// constant byte ceiling.
//
// Output is row-oriented, one row per plotted point, matching the series
// of Figures 12–15 and Table 3 (as Table 3′, the certification-effort
// analogue). The -type filter takes a registry name (exact or substring,
// see `peepul-verify -list`) and narrows Table 3′ to matching datatypes.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/bench"
	"repro/peepul"
)

func main() {
	fig := flag.String("fig", "all", `figure to regenerate: "12", "13", "14", "15", "table3", "sync", "dag", "space", "durable", "mesh", "recon", "chaos", "obs" or "all"`)
	seed := flag.Int64("seed", 1, "workload seed")
	quick := flag.Bool("quick", false, "use reduced sweeps (seconds instead of minutes)")
	scale := flag.Float64("table3-scale", 1.0, "scale factor for Table 3' random-exploration volume")
	typ := flag.String("type", "", "registry name (exact or substring) filter for Table 3'; empty = all")
	dagOut := flag.String("dag-out", "BENCH_dag.json", "output path for the DAG-scaling JSON (-fig dag)")
	spaceOut := flag.String("space-out", "BENCH_space.json", "output path for the space JSON (-fig space)")
	durableOut := flag.String("durable-out", "BENCH_durable.json", "output path for the durability JSON (-fig durable)")
	meshOut := flag.String("mesh-out", "BENCH_mesh.json", "output path for the always-on fleet JSON (-fig mesh)")
	reconOut := flag.String("recon-out", "BENCH_recon.json", "output path for the set-reconciliation JSON (-fig recon)")
	chaosOut := flag.String("chaos-out", "BENCH_chaos.json", "output path for the fault-recovery JSON (-fig chaos)")
	obsOut := flag.String("obs-out", "BENCH_obs.json", "output path for the instrumentation-overhead JSON (-fig obs)")
	obsGate := flag.Float64("obs-gate", 0, "fail (exit 1) if any instrumented scenario regresses more than this percent over the disabled twin; 0 disables (-fig obs)")
	durableFlat := flag.Float64("durable-flat-factor", 0, "fail (exit 1) if recovery at the deepest swept history exceeds this multiple of the shallowest; 0 disables (-fig durable)")
	reconGate := flag.Bool("recon-gate", false, "fail (exit 1) unless the converged recon re-sync at the deepest swept history ships 0 commits within a constant byte ceiling (-fig recon)")
	flag.Parse()

	if *typ != "" {
		matches := 0
		for _, name := range peepul.Names() {
			if bench.MatchType(name, *typ) {
				matches++
			}
		}
		if matches == 0 {
			fmt.Fprintf(os.Stderr, "no data type matches %q; registered:\n", *typ)
			for _, name := range peepul.Names() {
				fmt.Fprintf(os.Stderr, "  %s\n", name)
			}
			os.Exit(2)
		}
	}

	fig12Ns, fig13Ns, fig14Ns, syncNs := bench.Fig12Ns, bench.Fig13Ns, bench.Fig14Ns, bench.SyncNs
	dagNs, dagMeshNs := bench.DagNs, bench.DagMeshNs
	spaceNs, spaceLogNs := bench.SpaceNs, bench.SpaceLogNs
	durableNs, durableLogNs := bench.DurableNs, bench.DurableLogNs
	meshRingNs, meshFullNs, meshSteady := bench.MeshRingNs, bench.MeshFullNs, bench.MeshSteadyWindow
	reconNs := bench.ReconNs
	obsNs, obsIters, obsReps := bench.ObsNs, bench.ObsIters, bench.ObsReps
	chaosNodes := bench.ChaosNodes
	chaosLosses, chaosPartitions := bench.ChaosLossRates, bench.ChaosPartitions
	if *quick {
		fig12Ns = []int{500, 1000, 1500}
		fig13Ns = []int{5000, 10000, 20000}
		fig14Ns = []int{2000, 5000, 10000}
		syncNs = []int{32, 128}
		dagNs = []int{100, 1000, 10000}
		dagMeshNs = []int{100, 1000}
		spaceNs = []int{100, 1000, 10000}
		spaceLogNs = []int{100, 1000, 5000}
		durableNs = []int{100, 1000, 10000}
		durableLogNs = []int{100, 1000, 5000}
		meshRingNs = []int{4, 8}
		meshFullNs = []int{4}
		meshSteady = 300 * time.Millisecond
		reconNs = bench.ReconQuickNs
		obsNs, obsIters, obsReps = bench.ObsQuickNs, bench.ObsQuickIters, bench.ObsQuickReps
		chaosNodes = 4
		chaosLosses = []float64{0, 0.25}
		chaosPartitions = []time.Duration{0, 150 * time.Millisecond}
		if *scale == 1.0 {
			*scale = 0.1
		}
	}

	run := func(name string, f func()) {
		if *fig == "all" || *fig == name {
			f()
			fmt.Println()
		}
	}
	run("12", func() { bench.PrintFig12(os.Stdout, bench.Fig12(fig12Ns, *seed)) })
	run("13", func() { bench.PrintFig13(os.Stdout, bench.Fig13(fig13Ns, *seed)) })
	run("14", func() { bench.PrintFig14(os.Stdout, bench.Fig14(fig14Ns, *seed)) })
	run("15", func() { bench.PrintFig15(os.Stdout, bench.Fig15(fig14Ns, *seed)) })
	run("table3", func() { bench.PrintTable3(os.Stdout, bench.Table3(*scale, *typ)) })
	run("sync", func() { bench.PrintSyncCost(os.Stdout, bench.SyncCost(syncNs, *seed)) })
	run("dag", func() {
		rows := bench.Dag(dagNs, dagMeshNs)
		bench.PrintDag(os.Stdout, rows)
		f, err := os.Create(*dagOut)
		if err == nil {
			err = bench.WriteDagJSON(f, *seed, rows)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *dagOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", *dagOut, len(rows))
	})
	run("space", func() {
		rows := bench.Space(spaceNs, spaceLogNs, *seed)
		bench.PrintSpace(os.Stdout, rows)
		f, err := os.Create(*spaceOut)
		if err == nil {
			err = bench.WriteSpaceJSON(f, *seed, rows)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *spaceOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", *spaceOut, len(rows))
	})

	run("durable", func() {
		rows := bench.Durable(durableNs, durableLogNs, *seed)
		bench.PrintDurable(os.Stdout, rows)
		f, err := os.Create(*durableOut)
		if err == nil {
			err = bench.WriteDurableJSON(f, *seed, rows)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *durableOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", *durableOut, len(rows))
		if *durableFlat > 0 {
			factor, dt := bench.DurableFlatFactor(rows)
			fmt.Printf("recovery flatness: worst deepest/shallowest ratio %.2fx (%s), limit %.2fx\n", factor, dt, *durableFlat)
			if factor > *durableFlat {
				fmt.Fprintf(os.Stderr, "recovery is not flat: %s recovers %.2fx slower at the deepest history than the shallowest (limit %.2fx)\n", dt, factor, *durableFlat)
				os.Exit(1)
			}
		}
	})

	run("mesh", func() {
		rows := bench.Mesh(meshRingNs, meshFullNs, meshSteady)
		bench.PrintMesh(os.Stdout, rows)
		f, err := os.Create(*meshOut)
		if err == nil {
			err = bench.WriteMeshJSON(f, *seed, rows)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *meshOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", *meshOut, len(rows))
	})

	run("recon", func() {
		rows := bench.Recon(reconNs, *seed)
		bench.PrintRecon(os.Stdout, rows)
		f, err := os.Create(*reconOut)
		if err == nil {
			err = bench.WriteReconJSON(f, *seed, rows)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *reconOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", *reconOut, len(rows))
		if *reconGate {
			if err := bench.ReconGateErr(rows); err != nil {
				fmt.Fprintf(os.Stderr, "recon gate: %v\n", err)
				os.Exit(1)
			}
			fmt.Println("recon gate: converged re-sync is O(1) at the deepest history")
		}
	})

	run("obs", func() {
		rows := bench.Obs(obsNs, obsIters, obsReps)
		bench.PrintObs(os.Stdout, rows)
		f, err := os.Create(*obsOut)
		if err == nil {
			err = bench.WriteObsJSON(f, *seed, rows)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *obsOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", *obsOut, len(rows))
		if *obsGate > 0 {
			if err := bench.ObsGateErr(rows, *obsGate); err != nil {
				fmt.Fprintf(os.Stderr, "obs gate: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("obs gate: instrumentation overhead within %.1f%% on every scenario\n", *obsGate)
		}
	})

	run("chaos", func() {
		rows := bench.Chaos(chaosNodes, chaosLosses, chaosPartitions, *seed)
		bench.PrintChaos(os.Stdout, rows)
		f, err := os.Create(*chaosOut)
		if err == nil {
			err = bench.WriteChaosJSON(f, *seed, rows)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *chaosOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d rows)\n", *chaosOut, len(rows))
	})

	switch *fig {
	case "all", "12", "13", "14", "15", "table3", "sync", "dag", "space", "durable", "mesh", "recon", "chaos", "obs":
	default:
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		os.Exit(2)
	}
}
