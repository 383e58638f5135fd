// Anonymity: explore how the protocol parameters trade anonymity against
// churn resilience for your own deployment, using the paper's entropy
// metric (§6) and analytic churn models (§8.1).
//
// Run with:
//
//	go run ./examples/anonymity -N 5000 -f 0.15
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"

	"infoslicing/internal/anonymity"
	"infoslicing/internal/eval"
	"infoslicing/internal/metrics"
)

func main() {
	n := flag.Int("N", 10000, "overlay size")
	f := flag.Float64("f", 0.1, "fraction of relays the adversary controls")
	l := flag.Int("L", 8, "path length")
	d := flag.Int("d", 3, "split factor")
	p := flag.Float64("p", 0.2, "per-session node failure probability")
	trials := flag.Int("trials", 1000, "simulation trials")
	flag.Parse()

	fmt.Printf("deployment: N=%d nodes, adversary controls f=%.0f%%, graph L=%d d=%d\n\n",
		*n, *f*100, *l, *d)

	src, dst := &metrics.Series{Name: "srcAnon"}, &metrics.Series{Name: "dstAnon"}
	surv := &metrics.Series{Name: fmt.Sprintf("P(success,p=%.2g)", *p)}
	for dp := *d; dp <= *d*3; dp++ {
		r, err := anonymity.Simulate(anonymity.Params{
			N: *n, L: *l, D: *d, DPrime: dp, F: *f, Trials: *trials,
			Rng: rand.New(rand.NewSource(int64(dp))),
		})
		if err != nil {
			log.Fatal(err)
		}
		red := float64(dp-*d) / float64(*d)
		src.Add(red, r.Source)
		dst.Add(red, r.Destination)
		surv.Add(red, eval.SlicingSuccess(*l, *d, dp, *p))
	}
	metrics.NewTable("anonymity and churn resilience vs added redundancy", "R", src, dst, surv).Fprint(os.Stdout)

	fmt.Println("\nreading the table: adding redundancy (R > 0) buys survival under churn")
	fmt.Println("at a small cost in destination anonymity — the trade-off of Fig. 10 vs Fig. 16.")
}
