// Package anonymity evaluates the anonymity of information slicing against
// colluding compromised relays, reproducing the paper's simulation
// methodology (§6, Appendix A).
//
// The metric is normalized entropy (Eq. 5): the attacker assigns every
// overlay node a probability of being the source (or destination); anonymity
// is H(x)/log N, 1 when the attacker has learned nothing and 0 when it has
// identified the node.
//
// The attacker controls each relay independently with probability f; all
// compromised relays collude. A compromised relay knows the full membership
// of its predecessor and successor stages (the graph is complete bipartite
// between stages) but, because flow-ids change per hop, malicious nodes can
// stitch their views together only across consecutive stages (§A.1). The
// simulator therefore finds maximal runs of consecutive stages containing
// attackers; each run exposes the run's stages plus one stage on either
// side, and the longest such exposed chain drives Eqs. 8 and 11.
package anonymity

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Params configures one simulation sweep point.
type Params struct {
	N      int     // overlay size (Table 1)
	L      int     // path length: number of relay stages
	D      int     // split factor d: slices needed to decode
	DPrime int     // stage width d' ≥ d; 0 means d (no redundancy)
	F      float64 // fraction of overlay nodes compromised
	Trials int     // simulation repetitions (paper: 1000)
	Rng    *rand.Rand
}

// Result is the mean anonymity over the trials.
type Result struct {
	Source      float64 // mean source anonymity in [0, 1]
	Destination float64 // mean destination anonymity
	SourceCase1 float64 // fraction of trials where the source was fully exposed
	DestCase1   float64 // fraction of trials where the destination was fully exposed
}

// ErrParams reports an invalid configuration.
var ErrParams = errors.New("anonymity: invalid parameters")

func (p *Params) normalize() error {
	if p.DPrime == 0 {
		p.DPrime = p.D
	}
	switch {
	case p.N < 2, p.L < 1, p.D < 1, p.DPrime < p.D:
		return fmt.Errorf("%w: %+v", ErrParams, *p)
	case p.F < 0 || p.F > 1:
		return fmt.Errorf("%w: f=%v", ErrParams, p.F)
	case p.Trials < 1:
		return fmt.Errorf("%w: trials=%d", ErrParams, p.Trials)
	case p.N < p.L*p.DPrime:
		return fmt.Errorf("%w: N=%d smaller than graph %d", ErrParams, p.N, p.L*p.DPrime)
	}
	if p.Rng == nil {
		p.Rng = rand.New(rand.NewSource(1))
	}
	return nil
}

// Simulate runs the Monte-Carlo evaluation of source and destination
// anonymity (the procedure of §6.2).
func Simulate(p Params) (Result, error) {
	if err := p.normalize(); err != nil {
		return Result{}, err
	}
	var res Result
	for t := 0; t < p.Trials; t++ {
		src, dst, sc1, dc1 := trial(&p)
		res.Source += src
		res.Destination += dst
		if sc1 {
			res.SourceCase1++
		}
		if dc1 {
			res.DestCase1++
		}
	}
	n := float64(p.Trials)
	res.Source /= n
	res.Destination /= n
	res.SourceCase1 /= n
	res.DestCase1 /= n
	return res, nil
}

// trial samples one graph + attacker and evaluates both anonymities.
func trial(p *Params) (srcAnon, dstAnon float64, srcCase1, dstCase1 bool) {
	w := p.DPrime
	mal := make([][]bool, p.L)
	for l := range mal {
		mal[l] = make([]bool, w)
		for i := range mal[l] {
			mal[l][i] = p.Rng.Float64() < p.F
		}
	}
	// Destination: uniform position, forced honest (a compromised
	// destination is trivially exposed and excluded, as in the paper's
	// formulas which spread probability over non-malicious nodes only).
	destStage := 1 + p.Rng.Intn(p.L)
	destPos := p.Rng.Intn(w)
	mal[destStage-1][destPos] = false

	hasMal := make([]bool, p.L+1) // index 1..L; 0 is the source stage
	fullMal := make([]bool, p.L+1)
	anyMal := false
	for l := 1; l <= p.L; l++ {
		cnt := 0
		for _, m := range mal[l-1] {
			if m {
				cnt++
			}
		}
		hasMal[l] = cnt > 0
		fullMal[l] = cnt >= p.D // ≥ d of d' slices: stage decodes downstream
		anyMal = anyMal || hasMal[l]
	}

	srcAnon, srcCase1 = sourceAnonymity(p, hasMal, fullMal, anyMal)
	dstAnon, dstCase1 = destAnonymity(p, hasMal, fullMal, anyMal, destStage)
	return srcAnon, dstAnon, srcCase1, dstCase1
}

// chain describes one maximal exposed run of stages: the attacker-occupied
// stages [i..k] plus the adjacent stages whose membership the attackers see.
type chain struct {
	first, last int // exposed interval, clamped to [0, L] (0 = source stage)
}

func (c chain) len() int { return c.last - c.first + 1 }

// exposedChains finds maximal runs of consecutive attacker-occupied relay
// stages and widens each by one stage on both sides.
func exposedChains(hasMal []bool, L int) []chain {
	var out []chain
	l := 1
	for l <= L {
		if !hasMal[l] {
			l++
			continue
		}
		start := l
		for l <= L && hasMal[l] {
			l++
		}
		c := chain{first: start - 1, last: l} // widen by 1 each side
		if c.first < 0 {
			c.first = 0
		}
		if c.last > L {
			c.last = L
		}
		out = append(out, c)
	}
	return out
}

func longestChain(chains []chain) chain {
	best := chains[0]
	for _, c := range chains[1:] {
		if c.len() > best.len() {
			best = c
		}
	}
	return best
}

// sourceAnonymity implements §A.1.
func sourceAnonymity(p *Params, hasMal, fullMal []bool, anyMal bool) (float64, bool) {
	// Case 1: the attacker holds ≥ d slices of everything downstream of
	// stage 1, decodes the entire graph, and identifies the previous stage
	// as the source stage.
	if fullMal[1] {
		return 0, true
	}
	if !anyMal {
		return 1, false
	}
	chains := exposedChains(hasMal, p.L)
	s := longestChain(chains).len()
	// Eq. 8: with probability q = 1/(L-s) the first exposed stage is the
	// source stage; the remaining mass spreads over the other non-malicious
	// overlay nodes.
	q := 1.0
	if p.L-s >= 1 {
		q = 1 / float64(p.L-s)
	}
	gamma := float64(p.DPrime) // candidate stage width
	nOther := float64(p.N)*(1-p.F) - gamma
	if nOther < 1 {
		nOther = 1
	}
	h := entropyTwoClasses(q, gamma, nOther)
	return h / math.Log(float64(p.N)), false
}

// destAnonymity implements §A.2.
func destAnonymity(p *Params, hasMal, fullMal []bool, anyMal bool, destStage int) (float64, bool) {
	// Case 1: a fully compromised stage upstream of the destination decodes
	// the rest of the graph, including the receiver flag.
	for l := 1; l < destStage; l++ {
		if fullMal[l] {
			return 0, true
		}
	}
	if !anyMal {
		return 1, false
	}
	chains := exposedChains(hasMal, p.L)
	best := longestChain(chains)
	// Count only relay stages (the destination cannot be the source stage).
	first := best.first
	if first < 1 {
		first = 1
	}
	s := best.last - first + 1
	if s < 1 {
		s = 1
	}
	// Eq. 11: the destination is inside the exposed stages with probability
	// s/L, spread over their non-malicious nodes.
	w := float64(p.DPrime)
	q := float64(s) / float64(p.L)
	inS := float64(s) * w * (1 - p.F)
	if inS < 1 {
		inS = 1
	}
	nOther := (float64(p.N) - float64(s)*w) * (1 - p.F)
	if nOther < 1 {
		nOther = 1
	}
	h := entropyTwoClasses(q, inS, nOther)
	return h / math.Log(float64(p.N)), false
}

// entropyTwoClasses computes the entropy of a distribution that puts mass q
// uniformly on nIn nodes and mass 1-q uniformly on nOut nodes.
func entropyTwoClasses(q, nIn, nOut float64) float64 {
	var h float64
	if q > 0 && nIn > 0 {
		pi := q / nIn
		h -= q * math.Log(pi)
	}
	if r := 1 - q; r > 0 && nOut > 0 {
		po := r / nOut
		h -= r * math.Log(po)
	}
	return h
}
