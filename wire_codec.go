package totoro

import (
	"time"

	"totoro/internal/fl"
	"totoro/internal/wire/codec"
	"totoro/internal/workload"
)

// Codec-v2 registrations for the FL driver's own wire messages. These are
// the hottest application-level payloads in the engine — roundStart ships
// the global model down the tree every round, updateAgg ships the partial
// aggregates up, and replicaMsg replicates master state to the leaf set —
// so they get hand-rolled encoders at the start of the application tag
// range. RegisterWire installs them.
//
// Tags are wire contract: never reuse or renumber.
const (
	tagAppSpec = codec.TagApp + iota
	tagAnnounce
	tagStart
	tagRoundStart
	tagUpdateAgg
	tagReplica
)

// tagMasterPing follows the durable records' block (durable.go), which had
// taken the tags after tagReplica before masterPing got a codec.
const tagMasterPing = tagWalReplica + 1

func registerCodecs() {
	codec.RegisterCodec(tagAppSpec, AppSpec{},
		func(e *codec.Enc, v any) { encAppSpec(e, v.(AppSpec)) },
		func(d *codec.Dec) any { return decAppSpec(d) })
	codec.RegisterCodec(tagAnnounce, announceMsg{},
		func(e *codec.Enc, v any) { encAppSpec(e, v.(announceMsg).Spec) },
		func(d *codec.Dec) any { return announceMsg{Spec: decAppSpec(d)} })
	codec.RegisterCodec(tagStart, startMsg{},
		func(e *codec.Enc, v any) { e.ID(v.(startMsg).App) },
		func(d *codec.Dec) any { return startMsg{App: d.ID()} })
	codec.RegisterCodec(tagRoundStart, roundStart{},
		func(e *codec.Enc, v any) {
			m := v.(roundStart)
			e.ID(m.App)
			e.Int(m.Round)
			encInts(e, m.Sizes)
			e.Float64s(m.Params)
			encClientConfig(e, m.Cfg)
			e.Float64(m.Participation)
			e.String(m.Compressor)
			e.Int(m.TopK)
			e.Float64(m.NoiseSigma)
			e.Varint(m.Seed)
		},
		func(d *codec.Dec) any {
			return roundStart{
				App: d.ID(), Round: d.Int(), Sizes: decInts(d), Params: d.Float64s(),
				Cfg: decClientConfig(d), Participation: d.Float64(), Compressor: d.String(),
				TopK: d.Int(), NoiseSigma: d.Float64(), Seed: d.Varint(),
			}
		})
	codec.RegisterCodec(tagUpdateAgg, updateAgg{},
		func(e *codec.Enc, v any) {
			m := v.(updateAgg)
			e.Int(m.Bytes)
			e.Bool(m.Acc != nil)
			if m.Acc != nil {
				e.Float64s(m.Acc.WeightedSum)
				e.Int(m.Acc.Samples)
				e.Int(m.Acc.Count)
			}
		},
		func(d *codec.Dec) any {
			m := updateAgg{Bytes: d.Int()}
			if d.Bool() {
				m.Acc = &fl.Accum{WeightedSum: d.Float64s(), Samples: d.Int(), Count: d.Int()}
			}
			return m
		})
	codec.RegisterCodec(tagReplica, replicaMsg{},
		func(e *codec.Enc, v any) { encReplica(e, v.(replicaMsg)) },
		func(d *codec.Dec) any { return decReplica(d) })
	codec.RegisterCodec(tagMasterPing, masterPing{},
		func(e *codec.Enc, v any) {
			m := v.(masterPing)
			e.ID(m.App)
			e.Addr(m.From)
		},
		func(d *codec.Dec) any { return masterPing{App: d.ID(), From: d.Addr()} })
	registerWalCodecs()
}

// encReplica/decReplica serialize a full mastership image. Shared between
// the tagReplica network message and the durable WAL records
// (walMaster/walReplica/walSnapshot in durable.go), so a journaled image
// costs exactly what the replicated one does on the wire.
func encReplica(e *codec.Enc, m replicaMsg) {
	encAppSpec(e, m.Spec)
	e.Contact(m.Master)
	e.Int(m.Epoch)
	e.Int(m.Round)
	e.Float64s(m.Global)
	e.Uvarint(uint64(len(m.Points)))
	for _, p := range m.Points {
		e.Varint(int64(p.Time))
		e.Int(p.Round)
		e.Float64(p.Accuracy)
		e.Int(p.Participants)
	}
	e.Bool(m.Started)
	e.Bool(m.Done)
	e.Bool(m.Reached)
	e.Varint(int64(m.DoneAt))
}

func decReplica(d *codec.Dec) replicaMsg {
	m := replicaMsg{
		Spec: decAppSpec(d), Master: d.Contact(), Epoch: d.Int(), Round: d.Int(),
		Global: d.Float64s(),
	}
	if n := d.SliceLen(12); n > 0 {
		m.Points = make([]workload.AccuracyPoint, n)
		for i := range m.Points {
			m.Points[i] = workload.AccuracyPoint{
				Time: time.Duration(d.Varint()), Round: d.Int(),
				Accuracy: d.Float64(), Participants: d.Int(),
			}
		}
	}
	m.Started = d.Bool()
	m.Done = d.Bool()
	m.Reached = d.Bool()
	m.DoneAt = time.Duration(d.Varint())
	return m
}

func encAppSpec(e *codec.Enc, s AppSpec) {
	e.ID(s.ID)
	e.String(s.Name)
	encInts(e, s.Sizes)
	e.Float64s(s.InitParams)
	encClientConfig(e, s.Cfg)
	e.Float64(s.Participation)
	e.Float64(s.TargetAccuracy)
	e.Int(s.MaxRounds)
	e.String(s.Compressor)
	e.Int(s.TopK)
	e.Float64(s.NoiseSigma)
	e.Bool(s.ZoneRestricted)
	e.Int(s.TreeFanout)
	e.Varint(int64(s.RoundDeadline))
	e.Int(s.MinParticipants)
	e.Varint(s.Seed)
}

func decAppSpec(d *codec.Dec) AppSpec {
	return AppSpec{
		ID: d.ID(), Name: d.String(), Sizes: decInts(d), InitParams: d.Float64s(),
		Cfg: decClientConfig(d), Participation: d.Float64(), TargetAccuracy: d.Float64(),
		MaxRounds: d.Int(), Compressor: d.String(), TopK: d.Int(), NoiseSigma: d.Float64(),
		ZoneRestricted: d.Bool(), TreeFanout: d.Int(), RoundDeadline: time.Duration(d.Varint()),
		MinParticipants: d.Int(), Seed: d.Varint(),
	}
}

func encClientConfig(e *codec.Enc, c fl.ClientConfig) {
	e.Int(c.LocalEpochs)
	e.Int(c.BatchSize)
	e.Float64(c.LR)
	e.Float64(c.Momentum)
	e.Float64(c.ProxMu)
}

func decClientConfig(d *codec.Dec) fl.ClientConfig {
	return fl.ClientConfig{
		LocalEpochs: d.Int(), BatchSize: d.Int(), LR: d.Float64(),
		Momentum: d.Float64(), ProxMu: d.Float64(),
	}
}

func encInts(e *codec.Enc, v []int) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Varint(int64(x))
	}
}

func decInts(d *codec.Dec) []int {
	n := d.SliceLen(1)
	if n == 0 {
		return nil
	}
	out := make([]int, n)
	for i := range out {
		out[i] = d.Int()
	}
	return out
}
