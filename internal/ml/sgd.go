package ml

// SGD is a mini-batch stochastic gradient descent optimizer with classical
// momentum and L2 weight decay, operating on flat parameter vectors.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64
	vel         []float64
}

// Step applies one update: p ← p − lr·(g + wd·p) with momentum.
//
//vet:noalloc amortized
func (s *SGD) Step(params, grads []float64) {
	if len(s.vel) != len(params) {
		s.vel = make([]float64, len(params))
	}
	for i := range params {
		g := grads[i] + s.WeightDecay*params[i]
		s.vel[i] = s.Momentum*s.vel[i] - s.LR*g
		params[i] += s.vel[i]
	}
}

// Reset clears the momentum state so the optimizer (and its velocity
// buffer) can be reused for a fresh client.
//
//vet:noalloc
func (s *SGD) Reset() { clear(s.vel) }

// StepModel applies one update directly to the model's layer slices —
// the same arithmetic as Flat/Params/Step/SetParams without the three
// full-vector copies. The FedProx pull μ·(p − anchor) is folded in when
// mu > 0 (anchor is flat, Params order).
//
//vet:noalloc amortized
func (s *SGD) StepModel(m *MLP, g *Grads, mu float64, anchor []float64) {
	total := m.NumParams()
	if len(s.vel) != total {
		s.vel = make([]float64, total)
	}
	if anchor == nil {
		mu = 0
	}
	off := 0
	for l := range m.W {
		off = s.stepSlice(m.W[l], g.W[l], mu, anchor, off)
		off = s.stepSlice(m.B[l], g.B[l], mu, anchor, off)
	}
}

//vet:noalloc
func (s *SGD) stepSlice(p, g []float64, mu float64, anchor []float64, off int) int {
	vel := s.vel[off : off+len(p)]
	lr, mom, wd := s.LR, s.Momentum, s.WeightDecay
	if mu > 0 {
		anc := anchor[off : off+len(p)]
		for i := range p {
			gi := g[i] + mu*(p[i]-anc[i]) + wd*p[i]
			vel[i] = mom*vel[i] - lr*gi
			p[i] += vel[i]
		}
	} else {
		sgdStep(p, g, vel, lr, mom, wd)
	}
	return off + len(p)
}
