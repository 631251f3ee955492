// Command vsnoop-report regenerates the paper's tables and figures and
// prints them with the paper's published values alongside.
//
// Usage:
//
//	vsnoop-report [-scale quick|full] [-exp all|fig1|fig2|fig3|table1|table4|fig6|fig78|fig9|table5|fig10|table6]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vsnoop"
	"vsnoop/internal/exp"
	"vsnoop/internal/report"
)

func main() {
	scaleFlag := flag.String("scale", "quick", "run scale: quick or full")
	expFlag := flag.String("exp", "all", "experiment to run (comma-separated): all, fig1, fig2, fig3, table1, table4, fig6, fig78, fig9, table5, fig10, table6, ablations, energy, comparison")
	maxSteps := flag.Uint64("max-steps", 0, "abort any single run after this many simulation events (0 = unbounded)")
	flag.Parse()
	exp.MaxSteps = *maxSteps

	var sc exp.Scale
	switch *scaleFlag {
	case "quick":
		sc = exp.Quick
	case "full":
		sc = exp.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleFlag)
		os.Exit(2)
	}

	want := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(e)] = true
	}
	sel := func(names ...string) bool {
		if want["all"] {
			return true
		}
		for _, n := range names {
			if want[n] {
				return true
			}
		}
		return false
	}

	w := os.Stdout
	start := time.Now() //lint:wallclock wall-time trailer on stdout after all tables; golden comparisons stop before it
	fmt.Fprintf(w, "virtual snooping reproduction — scale=%s; each cell is one run at one config seed\n", sc.Name)

	if sel("fig1") {
		report.Figure1(w, exp.Figure1(sc))
	}
	if sel("fig2") {
		report.Figure2(w, exp.Figure2())
	}
	if sel("fig3", "table1") {
		f3, t1 := exp.Figure3Table1(sc)
		if sel("fig3") {
			report.Figure3(w, f3)
		}
		if sel("table1") {
			report.Table1(w, t1)
		}
	}
	if sel("table4", "fig6") {
		report.Table4Figure6(w, exp.Table4Figure6(sc))
	}
	if sel("fig78") {
		report.Figures78(w, exp.Figures78(sc, exp.SectionVApps))
	}
	if sel("fig9") {
		report.Figure9(w, exp.Figure9(sc, []string{"lu", "radix", "ferret", "blackscholes", "canneal"}))
	}
	if sel("table5") {
		report.Table5(w, exp.Table5(sc))
	}
	if sel("comparison") {
		report.Comparison(w, exp.Comparison(sc))
	}
	if sel("energy") {
		report.Energy(w, exp.Energy(sc))
	}
	if sel("ablations") {
		report.Ablations(w, exp.Ablations(sc))
	}
	if sel("fig10", "table6") {
		f10, t6 := exp.Figure10Table6(sc)
		if sel("fig10") {
			report.Figure10(w, f10)
		}
		if sel("table6") {
			report.Table6(w, t6)
		}
	}
	wall := time.Since(start) //lint:wallclock wall-time trailer on stdout after all tables; golden comparisons stop before it
	ev := vsnoop.TotalEventsFired()
	fmt.Fprintf(w, "\ncompleted in %s — %d events (%.0f events/sec)\n",
		wall.Round(time.Millisecond), ev, float64(ev)/wall.Seconds())
}
