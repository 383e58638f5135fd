package transport

import "time"

// rttEstimator is the RFC 6298 SRTT/RTTVAR estimator with Karn-rule
// backoff, per destination peer. It is a pure unit: callers feed it round-
// trip samples from the ack/echo channel (Observe) and timeout events
// (Backoff), and read the retransmission-timeout analogue (RTO) — here the
// interval after which the in-flight window is declared lost, since this
// transport never retransmits.
//
// Karn's rule is enforced by the caller's probe bookkeeping: after a
// timeout the outstanding probe is invalidated, so no sample is ever taken
// from an ambiguous (backed-off) exchange; Backoff keeps doubling the RTO
// until the next unambiguous Observe resets the estimate's confidence.
type rttEstimator struct {
	srtt   time.Duration
	rttvar time.Duration
	rto    time.Duration
	maxRTO time.Duration
}

const (
	minRTO        = 20 * time.Millisecond // the RTO's floor
	defaultMaxRTO = 10 * time.Second
	// initialRTO applies before the first sample (RFC 6298 §2.1 says 1s;
	// halved here — overlay hops are one edge, not an end-to-end path).
	initialRTO = 500 * time.Millisecond
)

func newRTTEstimator(maxRTO time.Duration) rttEstimator {
	if maxRTO <= 0 {
		maxRTO = defaultMaxRTO
	}
	e := rttEstimator{maxRTO: maxRTO}
	e.rto = e.clamp(initialRTO)
	return e
}

// Observe folds one unambiguous round-trip sample into the estimate
// (RFC 6298 §2.2–2.3: α=1/8, β=1/4) and recomputes the RTO, discarding any
// Karn backoff — a fresh sample means the path is answering again.
func (e *rttEstimator) Observe(sample time.Duration) {
	if sample < 0 {
		return
	}
	if e.srtt == 0 {
		e.srtt = sample
		e.rttvar = sample / 2
	} else {
		d := e.srtt - sample
		if d < 0 {
			d = -d
		}
		e.rttvar += (d - e.rttvar) / 4
		e.srtt += (sample - e.srtt) / 8
	}
	e.rto = e.clamp(e.srtt + 4*e.rttvar)
}

// Backoff applies Karn's exponential timer backoff after a timeout: the
// RTO doubles (clamped) and stays doubled until the next Observe.
func (e *rttEstimator) Backoff() {
	e.rto = e.clamp(e.rto * 2)
}

// RTO returns the current timeout interval.
func (e *rttEstimator) RTO() time.Duration { return e.rto }

// SRTT returns the smoothed round-trip estimate (zero before any sample).
func (e *rttEstimator) SRTT() time.Duration { return e.srtt }

// RTTVar returns the smoothed round-trip variance.
func (e *rttEstimator) RTTVar() time.Duration { return e.rttvar }

func (e *rttEstimator) clamp(d time.Duration) time.Duration {
	if d < minRTO {
		return minRTO
	}
	if d > e.maxRTO {
		return e.maxRTO
	}
	return d
}
