// Command tracegen synthesizes bursty FaaS invocation traces and prints
// per-minute statistics, the instance-churn analysis of Figure 2, or a
// whole Zipf fleet of traces.
//
// Usage:
//
//	tracegen [-seed N] [-minutes M] [-base RPS] [-burst RPS]
//	         [-burstlen SEC] [-burstgap SEC] [-churn] [-csv] [-events]
//	tracegen -funcs N [-zipf S] ...   # fleet mode (trace.GenFleet)
//
// In fleet mode -base and -burst are fleet-aggregate rates split across
// functions by Zipf popularity. -csv emits machine-readable per-minute
// counts (minute,invocations or func,minute,invocations) for plotting.
// -events instead streams the exact-replay CSV ("func,t_ns", one row
// per invocation) straight from the generator cursors in O(1) memory.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"squeezy/internal/sim"
	"squeezy/internal/trace"
)

func main() {
	seed := flag.Uint64("seed", 1, "deterministic seed")
	minutes := flag.Int("minutes", 10, "trace length in minutes")
	base := flag.Float64("base", 0.5, "quiet-period request rate (rps; fleet-aggregate with -funcs)")
	burst := flag.Float64("burst", 20, "in-burst request rate (rps; fleet-aggregate with -funcs)")
	burstLen := flag.Float64("burstlen", 20, "mean burst duration in seconds")
	burstGap := flag.Float64("burstgap", 45, "mean quiet gap between bursts in seconds")
	funcs := flag.Int("funcs", 0, "fleet mode: generate N functions with Zipf popularity")
	zipf := flag.Float64("zipf", 1.1, "fleet popularity exponent (with -funcs)")
	churn := flag.Bool("churn", false, "print instance churn (Figure 2 analysis) instead of rates")
	csvOut := flag.Bool("csv", false, "emit per-minute counts as CSV for plotting")
	events := flag.Bool("events", false, "emit the exact-replay events CSV (func,t_ns), streamed in O(1) memory")
	flag.Parse()

	if *events && *churn {
		fmt.Fprintln(os.Stderr, "tracegen: -events emits raw invocations; it cannot be combined with -churn")
		os.Exit(2)
	}

	if *burstLen <= 0 || *burstGap <= 0 {
		fmt.Fprintln(os.Stderr, "tracegen: -burstlen and -burstgap must be positive")
		os.Exit(2)
	}
	dur := sim.Duration(*minutes) * sim.Minute
	bl := sim.Duration(*burstLen * float64(sim.Second))
	bg := sim.Duration(*burstGap * float64(sim.Second))

	if *funcs > 0 {
		if *churn {
			fmt.Fprintln(os.Stderr, "tracegen: -churn is a single-trace analysis; it cannot be combined with -funcs")
			os.Exit(2)
		}
		fcfg := trace.FleetConfig{
			Funcs:         *funcs,
			Duration:      dur,
			ZipfS:         *zipf,
			TotalBaseRPS:  *base,
			TotalBurstRPS: *burst,
			BurstLen:      bl,
			BurstGap:      bg,
		}
		if *events {
			writeEvents(trace.NewFleetStream(*seed, fcfg))
			return
		}
		traces := trace.GenFleet(*seed, fcfg)
		if *csvOut {
			rows := [][]string{}
			for fi, tr := range traces {
				for m, c := range perMinute(tr, *minutes) {
					rows = append(rows, []string{strconv.Itoa(fi), strconv.Itoa(m), strconv.Itoa(c)})
				}
			}
			writeCSV([]string{"func", "minute", "invocations"}, rows)
			return
		}
		total := 0
		for _, tr := range traces {
			total += tr.Len()
		}
		fmt.Printf("fleet: %d functions, %d invocations over %d minutes\n", *funcs, total, *minutes)
		fmt.Println("func   invocations  peak_concurrency@1s")
		for fi, tr := range traces {
			fmt.Printf("%4d  %12d  %19d\n", fi, tr.Len(), trace.PeakConcurrency(tr, sim.Second))
		}
		return
	}

	bcfg := trace.BurstyConfig{
		Duration: dur,
		BaseRPS:  *base,
		BurstRPS: *burst,
		BurstLen: bl,
		BurstGap: bg,
	}
	if *events {
		writeEvents(trace.NewBursty(*seed, bcfg))
		return
	}
	tr := trace.GenBursty(*seed, bcfg)
	if *churn {
		points := trace.InstanceChurn(tr, sim.Second, 5*sim.Minute, dur)
		if *csvOut {
			rows := [][]string{}
			for _, p := range points {
				rows = append(rows, []string{strconv.Itoa(p.Minute), strconv.Itoa(p.Creations), strconv.Itoa(p.Evictions)})
			}
			writeCSV([]string{"minute", "creations", "evictions"}, rows)
			return
		}
		fmt.Println("minute  creations  evictions")
		for _, p := range points {
			fmt.Printf("%6d  %9d  %9d\n", p.Minute, p.Creations, p.Evictions)
		}
		return
	}
	counts := perMinute(tr, *minutes)
	if *csvOut {
		rows := [][]string{}
		for m, c := range counts {
			rows = append(rows, []string{strconv.Itoa(m), strconv.Itoa(c)})
		}
		writeCSV([]string{"minute", "invocations"}, rows)
		return
	}
	fmt.Printf("total invocations: %d (peak concurrency %d at 1s exec)\n",
		tr.Len(), trace.PeakConcurrency(tr, sim.Second))
	fmt.Println("minute  invocations")
	for m, c := range counts {
		fmt.Printf("%6d  %11d\n", m, c)
	}
}

func perMinute(tr *trace.Trace, minutes int) []int {
	counts := make([]int, minutes)
	for _, ts := range tr.Times {
		m := int(sim.Duration(ts) / sim.Minute)
		if m < len(counts) {
			counts[m]++
		}
	}
	return counts
}

func writeEvents(s trace.Stream) {
	if _, err := trace.WriteCSV(os.Stdout, s); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func writeCSV(header []string, rows [][]string) {
	w := csv.NewWriter(os.Stdout)
	w.Write(header)
	for _, r := range rows {
		w.Write(r)
	}
	w.Flush()
	if err := w.Error(); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}
