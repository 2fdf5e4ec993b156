package bandit

import "math"

// KL returns the Kullback–Leibler divergence between two Bernoulli
// distributions with means p and q (paper §5.2).
func KL(p, q float64) float64 {
	const eps = 1e-12
	p = clamp(p, 0, 1)
	q = clamp(q, eps, 1-eps)
	var d float64
	if p > 0 {
		d += p * math.Log(p/q)
	}
	if p < 1 {
		d += (1 - p) * math.Log((1-p)/(1-q))
	}
	return d
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// KLUCBUpper returns the KL-UCB upper confidence bound for a Bernoulli
// mean: the largest u ∈ [θ̂, 1] with attempts·KL(θ̂, u) ≤ budget. With no
// observations it is fully optimistic (1).
func KLUCBUpper(thetaHat float64, attempts int, budget float64) float64 {
	if attempts == 0 || budget <= 0 {
		if attempts == 0 {
			return 1
		}
		return clamp(thetaHat, 1e-9, 1)
	}
	lo, hi := clamp(thetaHat, 0, 1), 1.0
	limit := budget / float64(attempts)
	for iter := 0; iter < 48; iter++ {
		mid := (lo + hi) / 2
		if KL(thetaHat, mid) <= limit {
			lo = mid
		} else {
			hi = mid
		}
	}
	return clamp(lo, 1e-9, 1)
}
