package simnet

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"totoro/internal/transport"
)

// Nemesis is a Jepsen-style fault scheduler: a seeded, composable script
// of fault phases driven over virtual time on the network's own event
// loop. Each phase activates a fault at its start time and undoes it at
// start+duration; phases overlap freely (partition + link faults + kills
// at once), and victim selection draws from the nemesis seed over the
// sorted address list, so a (seed, spec) pair replays bit-identically.
//
// The schedule spec is a ';'-separated list of phases:
//
//	kind@start+duration[/key=value,key=value,...]
//
// with Go duration syntax, e.g.
//
//	partition@2s+3s/frac=0.3;drop@1s+6s/p=0.2;kill@4s+2s/n=2
//
// Phase kinds and their parameters (defaults in parentheses):
//
//	partition  symmetric split: a random frac (0.3) of eligible nodes is
//	           cut from the rest in both directions, healed at phase end
//	oneway     asymmetric partition: same split, but only dir=out (their
//	           outbound) or dir=in (their inbound) messages are blocked
//	isolate    n (1) random nodes lose all connectivity, then heal
//	drop       every link drops messages with probability p (0.1)
//	dup        every link duplicates messages with probability p (0.05)
//	reorder    every link holds messages back with probability p (0.2)
//	           for a random delay in [0, w) (w=20ms)
//	delay      every link gains fixed extra one-way delay d (50ms)
//	slow       n (1) random nodes become stragglers: extra delay d
//	           (100ms) on all their links, both directions
//	kill       n (1) random nodes crash at phase start; at phase end they
//	           crash-restart (restart=true) or revive with memory intact
//	           (restart=false)
//	churn      a Poisson fail/revive process (the paper's §7.5 failure
//	           experiments) for the length of the phase: after every
//	           exponential gap of mean mtbf (1s) one eligible node crashes,
//	           to return after an exponential downtime of mean down (0 =
//	           never) revived (restart=false) or crash-restarted
//	           (restart=true), also past phase end. Each failure draws the
//	           victim (Intn over the eligible list), its downtime if
//	           down > 0, then the next gap
//	disk       n (1) random nodes' durable stores start failing for the
//	           phase (delivered through NemesisConfig.OnDisk; the network
//	           itself has no disks)
type Nemesis struct {
	net    *Network
	cfg    NemesisConfig
	rng    *rand.Rand
	exempt map[transport.Addr]bool

	// Phases counts activations so far; Kills/Restarts/Revives count
	// node-level events the scheduler injected.
	Phases, Kills, Restarts, Revives int
}

// NemesisConfig parameterizes a Nemesis run.
type NemesisConfig struct {
	// Seed drives victim selection and any per-phase randomness,
	// independent of the network seed, so a fault schedule never perturbs
	// the traffic it is injected into.
	Seed int64
	// Spec is the schedule in the textual grammar above. Ignored when
	// Phases is set.
	Spec string
	// Phases is the parsed schedule (ParseSchedule output or hand-built).
	Phases []Phase
	// Exempt nodes are never killed, isolated, slowed, or disk-failed,
	// and always land on the majority side of a partition (harnesses
	// protect data holders so chaos measures protocol recovery, not data
	// loss).
	Exempt []transport.Addr
	// OnDisk delivers "disk" phases: called with active=true at phase
	// start and active=false at heal, once per victim. Nil disables the
	// kind (phases are skipped).
	OnDisk func(addr transport.Addr, active bool)
	// OnRestart fires after a kill or churn phase crash-restarts a node
	// (the harness completes recovery: re-attach shards, rejoin, resume).
	OnRestart func(addr transport.Addr, now time.Duration)
	// OnPhase observes every activation/heal (logging, assertions).
	OnPhase func(ph Phase, active bool, victims []transport.Addr)
}

// Phase is one scheduled fault: a kind, a start time, a duration, and
// kind-specific parameters.
type Phase struct {
	Kind   string
	Start  time.Duration
	Dur    time.Duration
	Params map[string]string
}

// String renders the phase back in spec syntax.
func (p Phase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s@%v+%v", p.Kind, p.Start, p.Dur)
	if len(p.Params) > 0 {
		keys := make([]string, 0, len(p.Params))
		for k := range p.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sep := "/"
		for _, k := range keys {
			fmt.Fprintf(&b, "%s%s=%s", sep, k, p.Params[k])
			sep = ","
		}
	}
	return b.String()
}

func (p Phase) float(key string, def float64) float64 {
	if s, ok := p.Params[key]; ok {
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			return v
		}
	}
	return def
}

func (p Phase) intp(key string, def int) int {
	if s, ok := p.Params[key]; ok {
		if v, err := strconv.Atoi(s); err == nil {
			return v
		}
	}
	return def
}

func (p Phase) duration(key string, def time.Duration) time.Duration {
	if s, ok := p.Params[key]; ok {
		if v, err := time.ParseDuration(s); err == nil {
			return v
		}
	}
	return def
}

func (p Phase) boolean(key string, def bool) bool {
	if s, ok := p.Params[key]; ok {
		if v, err := strconv.ParseBool(s); err == nil {
			return v
		}
	}
	return def
}

// ParseSchedule parses the nemesis spec grammar. It validates kinds,
// times, and parameter syntax; unknown parameter keys are rejected too,
// so a typo fails the run instead of silently injecting nothing.
func ParseSchedule(spec string) ([]Phase, error) {
	var phases []Phase
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ph, err := parsePhase(part)
		if err != nil {
			return nil, fmt.Errorf("nemesis spec %q: %w", part, err)
		}
		phases = append(phases, ph)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("nemesis spec %q: no phases", spec)
	}
	return phases, nil
}

// phaseParamKeys lists the phase kinds and the parameters each one takes.
var phaseParamKeys = map[string]map[string]bool{
	"partition": {"frac": true},
	"oneway":    {"frac": true, "dir": true},
	"isolate":   {"n": true},
	"drop":      {"p": true},
	"dup":       {"p": true},
	"reorder":   {"p": true, "w": true},
	"delay":     {"d": true},
	"slow":      {"n": true, "d": true},
	"kill":      {"n": true, "restart": true},
	"churn":     {"mtbf": true, "down": true, "restart": true},
	"disk":      {"n": true},
}

func parsePhase(s string) (Phase, error) {
	kind, rest, ok := strings.Cut(s, "@")
	if !ok {
		return Phase{}, fmt.Errorf("missing '@' (want kind@start+dur)")
	}
	kind = strings.TrimSpace(kind)
	allowed, ok := phaseParamKeys[kind]
	if !ok {
		return Phase{}, fmt.Errorf("unknown kind %q", kind)
	}
	timing, params, _ := strings.Cut(rest, "/")
	startS, durS, ok := strings.Cut(timing, "+")
	if !ok {
		return Phase{}, fmt.Errorf("missing '+' (want kind@start+dur)")
	}
	start, err := time.ParseDuration(strings.TrimSpace(startS))
	if err != nil {
		return Phase{}, fmt.Errorf("bad start: %w", err)
	}
	dur, err := time.ParseDuration(strings.TrimSpace(durS))
	if err != nil {
		return Phase{}, fmt.Errorf("bad duration: %w", err)
	}
	if start < 0 || dur <= 0 {
		return Phase{}, fmt.Errorf("want start >= 0 and duration > 0")
	}
	ph := Phase{Kind: kind, Start: start, Dur: dur}
	if params != "" {
		ph.Params = make(map[string]string)
		for _, kv := range strings.Split(params, ",") {
			k, v, ok := strings.Cut(kv, "=")
			k = strings.TrimSpace(k)
			if !ok || k == "" || v == "" {
				return Phase{}, fmt.Errorf("bad parameter %q (want key=value)", kv)
			}
			if !allowed[k] {
				return Phase{}, fmt.Errorf("kind %s does not take parameter %q", kind, k)
			}
			ph.Params[k] = strings.TrimSpace(v)
		}
	}
	return ph, nil
}

// StartNemesis schedules the configured fault phases on the network's
// event loop. The spec (or Phases) is validated up front; the returned
// Nemesis reports injection counts as the schedule plays out.
func (n *Network) StartNemesis(cfg NemesisConfig) (*Nemesis, error) {
	phases := cfg.Phases
	if phases == nil {
		var err error
		phases, err = ParseSchedule(cfg.Spec)
		if err != nil {
			return nil, err
		}
	}
	nm := &Nemesis{
		net:    n,
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		exempt: make(map[transport.Addr]bool, len(cfg.Exempt)),
	}
	for _, a := range cfg.Exempt {
		nm.exempt[a] = true
	}
	for _, ph := range phases {
		ph := ph
		n.timer(ph.Start-n.now, nil, func() { nm.activate(ph) })
	}
	return nm, nil
}

// bringBack ends a victim's downtime: crash-restarted with a rebuilt stack
// (only its durable store survives) or revived with its memory intact.
func (nm *Nemesis) bringBack(addr transport.Addr, restart bool) {
	if !restart {
		nm.net.Revive(addr)
		nm.Revives++
		return
	}
	nm.net.Restart(addr)
	nm.Restarts++
	if nm.cfg.OnRestart != nil {
		nm.cfg.OnRestart(addr, nm.net.Now())
	}
}

// eligible lists the alive, non-exempt nodes in deterministic order.
func (nm *Nemesis) eligible() []transport.Addr {
	var out []transport.Addr
	for _, a := range nm.net.Addrs() {
		if !nm.exempt[a] && nm.net.Alive(a) {
			out = append(out, a)
		}
	}
	return out
}

// pick draws k distinct eligible victims (fewer if the population is
// smaller), in a seeded order.
func (nm *Nemesis) pick(k int) []transport.Addr {
	cand := nm.eligible()
	if k > len(cand) {
		k = len(cand)
	}
	perm := nm.rng.Perm(len(cand))
	out := make([]transport.Addr, 0, k)
	for _, i := range perm[:k] {
		out = append(out, cand[i])
	}
	return out
}

// split partitions the population: a frac share of eligible nodes on the
// minority side, everyone else (exempt and dead included) on the other.
func (nm *Nemesis) split(frac float64) (minority, rest []transport.Addr) {
	cand := nm.eligible()
	k := int(frac * float64(len(cand)))
	if k < 1 {
		k = 1
	}
	if k >= len(cand) {
		k = len(cand) - 1
	}
	if k < 1 {
		return nil, nil
	}
	minority = nm.pick(k)
	inMinority := make(map[transport.Addr]bool, len(minority))
	for _, a := range minority {
		inMinority[a] = true
	}
	for _, a := range nm.net.Addrs() {
		if !inMinority[a] {
			rest = append(rest, a)
		}
	}
	return minority, rest
}

// activate applies one phase and schedules its heal.
func (nm *Nemesis) activate(ph Phase) {
	var victims []transport.Addr
	var heal func()
	switch ph.Kind {
	case "partition":
		minority, rest := nm.split(ph.float("frac", 0.3))
		if minority == nil {
			return
		}
		victims = minority
		heal = nm.net.Partition(minority, rest)
	case "oneway":
		minority, rest := nm.split(ph.float("frac", 0.3))
		if minority == nil {
			return
		}
		victims = minority
		if ph.Params["dir"] == "in" {
			heal = nm.net.BlockOneWay(rest, minority)
		} else {
			heal = nm.net.BlockOneWay(minority, rest)
		}
	case "isolate":
		victims = nm.pick(ph.intp("n", 1))
		var rest []transport.Addr
		cut := AddrSet(victims)
		for _, a := range nm.net.Addrs() {
			if !cut[a] {
				rest = append(rest, a)
			}
		}
		heal = nm.net.Partition(victims, rest)
	case "drop":
		heal = nm.net.AddLinkRule(LinkRule{Drop: ph.float("p", 0.1)})
	case "dup":
		heal = nm.net.AddLinkRule(LinkRule{Dup: ph.float("p", 0.05)})
	case "reorder":
		heal = nm.net.AddLinkRule(LinkRule{
			Reorder:       ph.float("p", 0.2),
			ReorderWindow: ph.duration("w", defaultReorderWindow),
		})
	case "delay":
		heal = nm.net.AddLinkRule(LinkRule{Delay: ph.duration("d", 50*time.Millisecond)})
	case "slow":
		victims = nm.pick(ph.intp("n", 1))
		set := AddrSet(victims)
		heal = nm.net.AddLinkRule(LinkRule{
			From:          set,
			Bidirectional: true,
			Delay:         ph.duration("d", 100*time.Millisecond),
		})
	case "kill":
		victims = nm.pick(ph.intp("n", 1))
		restart := ph.boolean("restart", true)
		for _, a := range victims {
			nm.net.Fail(a)
			nm.Kills++
		}
		vs := victims
		heal = func() {
			for _, a := range vs {
				nm.bringBack(a, restart)
			}
		}
	case "churn":
		mtbf := ph.duration("mtbf", time.Second)
		if mtbf <= 0 {
			return
		}
		down := ph.duration("down", 0)
		restart := ph.boolean("restart", false)
		over := false
		var failNext func()
		failNext = func() {
			nm.net.timer(time.Duration(nm.rng.ExpFloat64()*float64(mtbf)), nil, func() {
				if over {
					return
				}
				// A dead node is not eligible, so no victim is failed twice.
				if cand := nm.eligible(); len(cand) > 0 {
					victim := cand[nm.rng.Intn(len(cand))]
					nm.net.Fail(victim)
					nm.Kills++
					if down > 0 {
						nm.net.timer(time.Duration(nm.rng.ExpFloat64()*float64(down)), nil, func() {
							nm.bringBack(victim, restart)
						})
					}
				}
				failNext()
			})
		}
		failNext()
		heal = func() { over = true }
	case "disk":
		if nm.cfg.OnDisk == nil {
			return
		}
		victims = nm.pick(ph.intp("n", 1))
		for _, a := range victims {
			nm.cfg.OnDisk(a, true)
		}
		vs := victims
		heal = func() {
			for _, a := range vs {
				nm.cfg.OnDisk(a, false)
			}
		}
	default:
		return
	}
	nm.Phases++
	if nm.cfg.OnPhase != nil {
		nm.cfg.OnPhase(ph, true, victims)
	}
	nm.net.timer(ph.Dur, nil, func() {
		heal()
		if nm.cfg.OnPhase != nil {
			nm.cfg.OnPhase(ph, false, victims)
		}
	})
}
