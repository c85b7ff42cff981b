// Command vcloudbench runs the paper-reproduction experiment suite
// (E1–E17) and prints the result tables that back EXPERIMENTS.md.
//
// Usage:
//
//	vcloudbench                 # run everything, full size
//	vcloudbench -quick          # smaller populations/durations
//	vcloudbench -only E4,E5     # a subset
//	vcloudbench -seed 7         # different seed (results reproduce per seed)
//	vcloudbench -parallel 8     # worker-pool width (default: GOMAXPROCS)
//	vcloudbench -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Experiments and their per-configuration sweep points run across a
// bounded worker pool; every sweep point builds its own kernel, and
// tables are assembled in sweep order, so stdout is byte-identical at
// any -parallel value (run timing goes to stderr). Per-seed results
// reproduce exactly, so `vcloudbench | diff - experiments_output.txt`
// is the byte-level regression check. Host time is not measured here:
// that is `go run ./benchmark`.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"vcloud/internal/experiments"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		seed       = flag.Int64("seed", 42, "random seed; equal seeds reproduce runs exactly")
		quick      = flag.Bool("quick", false, "shrink populations and durations")
		only       = flag.String("only", "", "comma-separated experiment ids (e.g. E1,E5); empty = all")
		parallel   = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker-pool width for experiments and sweep points (1 = serial)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "vcloudbench: unexpected positional arguments: %v\n", flag.Args())
		flag.Usage()
		return 2
	}
	if *parallel < 1 {
		fmt.Fprintf(os.Stderr, "vcloudbench: -parallel must be at least 1, got %d\n", *parallel)
		return 2
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.TrimSpace(strings.ToUpper(id))] = true
		}
	}
	wantAll := len(want) == 0
	var runners []experiments.Runner
	for _, r := range experiments.All() {
		if wantAll || want[r.ID] {
			runners = append(runners, r)
			delete(want, r.ID)
		}
	}
	if len(want) > 0 {
		unknown := make([]string, 0, len(want))
		for id := range want {
			unknown = append(unknown, id)
		}
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "vcloudbench: unknown experiment ids in -only: %s\n", strings.Join(unknown, ","))
		return 2
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vcloudbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "vcloudbench:", err)
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "vcloudbench: closing cpu profile:", cerr)
			}
			return 1
		}
		// A truncated or unflushed profile is worse than no profile, so a
		// failed close turns an otherwise-clean run into a failure.
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "vcloudbench: closing cpu profile:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	cfg := experiments.Config{Seed: *seed, Quick: *quick, Parallel: *parallel}

	// The pool: workers pull experiment indices; the main goroutine
	// prints each experiment's block as soon as it — and everything
	// before it — is done, so stdout order never depends on timing.
	type outcome struct {
		res  *experiments.Result
		err  error
		wall time.Duration
	}
	outs := make([]outcome, len(runners))
	done := make([]chan struct{}, len(runners))
	for i := range done {
		done[i] = make(chan struct{})
	}
	workers := *parallel
	if workers > len(runners) {
		workers = len(runners)
	}
	totalStart := time.Now()
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(next.Add(1)) - 1
				if i >= len(runners) {
					return
				}
				start := time.Now()
				res, err := runners[i].Run(cfg)
				outs[i] = outcome{res: res, err: err, wall: time.Since(start)}
				close(done[i])
			}
		}()
	}

	failed := 0
	for i, r := range runners {
		<-done[i]
		o := outs[i]
		fmt.Printf("== %s: %s (seed=%d quick=%v)\n", r.ID, r.Name, *seed, *quick)
		if o.err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", r.ID, o.err)
			failed++
			continue
		}
		fmt.Println(o.res.Table.String())
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s wall time: %v)\n", r.ID, o.wall.Round(time.Millisecond))
	}
	fmt.Fprintf(os.Stderr, "(total wall time: %v, parallel=%d)\n",
		time.Since(totalStart).Round(time.Millisecond), *parallel)

	if *memprofile != "" {
		if err := writeMemProfile(*memprofile); err != nil {
			fmt.Fprintln(os.Stderr, "vcloudbench:", err)
			return 1
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// writeMemProfile snapshots the heap to path, reporting write and close
// errors alike — a heap profile missing its tail is silently misleading.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	werr := pprof.WriteHeapProfile(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	if cerr != nil {
		return fmt.Errorf("closing heap profile: %w", cerr)
	}
	return nil
}
