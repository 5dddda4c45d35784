package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"cobcast/internal/baseline/fifo"
	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/network"
	"cobcast/internal/pdu"
	"cobcast/internal/simrun"
	"cobcast/internal/trace"
	"cobcast/internal/workload"
)

// ServiceRow reports which ordering properties one service level
// delivered on the shared scenario of the taxonomy experiment.
type ServiceRow struct {
	Service string
	// Local, Causal, Total report whether the delivery orders satisfied
	// each property of Section 2.2/2.3.
	Local  bool
	Causal bool
	Total  bool
}

// ServiceComparison drives the paper's service taxonomy (§2.3,
// LO ⊂ CO ⊂ TO) through one shared hazard: concurrent senders plus a
// causal reply, over channels whose asymmetric delays reorder arrivals
// across sources. The LO baseline delivers per-source FIFO only (the PO
// protocol's service), the CO protocol preserves causality, and the
// total-order extension makes every sequence identical.
func ServiceComparison() ([]ServiceRow, error) {
	rows := make([]ServiceRow, 0, 3)

	lo, err := loServiceRow()
	if err != nil {
		return nil, err
	}
	rows = append(rows, lo)

	for _, mode := range []struct {
		name  string
		total bool
	}{{"CO protocol", false}, {"CO + total order", true}} {
		row, err := coServiceRow(mode.name, mode.total)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// loServiceRow replays the Figure 2 hazard through the FIFO (LO) baseline:
// entity 2 receives the causally later q before p and, with no causal
// machinery, delivers it first.
func loServiceRow() (ServiceRow, error) {
	es := make([]*fifo.Entity, 3)
	for i := range es {
		e, err := fifo.New(pdu.EntityID(i), 3)
		if err != nil {
			return ServiceRow{}, err
		}
		es[i] = e
	}
	streams := make([][]flight.Event, 3)
	record := func(t flight.EventType, entity pdu.EntityID, m fifo.Message) {
		streams[entity] = append(streams[entity], flight.Event{Entity: int32(entity), Type: t,
			Src: int32(m.Src), Seq: uint64(m.Seq), Kind: uint8(pdu.KindData)})
	}
	deliver := func(at pdu.EntityID, m fifo.Message) error {
		ds, err := es[at].Receive(m)
		if err != nil {
			return err
		}
		for _, d := range ds {
			record(flight.EvAccept, at, d)
			record(flight.EvDeliver, at, d)
		}
		return nil
	}

	p := es[0].Broadcast([]byte("p"))
	record(flight.EvSequence, 0, p)
	record(flight.EvDeliver, 0, p)
	if err := deliver(1, p); err != nil {
		return ServiceRow{}, err
	}
	q := es[1].Broadcast([]byte("q")) // causally after p
	record(flight.EvSequence, 1, q)
	record(flight.EvDeliver, 1, q)
	if err := deliver(0, q); err != nil {
		return ServiceRow{}, err
	}
	// The slow channel delivers q to entity 2 before p.
	if err := deliver(2, q); err != nil {
		return ServiceRow{}, err
	}
	if err := deliver(2, p); err != nil {
		return ServiceRow{}, err
	}

	a, err := trace.Analyze(streams)
	if err != nil {
		return ServiceRow{}, err
	}
	return ServiceRow{
		Service: "LO (per-source FIFO)",
		Local:   a.CheckLocalOrderPreserved() == nil,
		Causal:  a.CheckCausalOrderPreserved() == nil,
		Total:   a.CheckTotalOrderPreserved() == nil,
	}, nil
}

// coServiceRow runs concurrent senders plus causal replies through the
// full protocol over asymmetric channels.
func coServiceRow(name string, total bool) (ServiceRow, error) {
	c, err := simrun.New(simrun.Options{
		N:     3,
		Trace: true,
		Core:  core.Config{TotalOrder: total},
		Net: []network.Option{
			network.WithSeed(2),
			network.WithDelay(asymmetricDelay),
		},
	})
	if err != nil {
		return ServiceRow{}, err
	}
	// Messages from every entity at random gaps about as long as a
	// confirmation round, so both concurrent and causally related pairs
	// occur. Back-to-back bursts (workload.Continuous, 2 to 10 messages
	// per sender) commit in one order everywhere, so they hide CO's
	// partial order.
	c.LoadWorkload(workload.NewInteractive(3, 15, 16, 2*time.Millisecond, 1))
	if _, err := c.RunToQuiescence(2 * time.Minute); err != nil {
		return ServiceRow{}, fmt.Errorf("%s: %w", name, err)
	}
	a, err := c.Analyze()
	if err != nil {
		return ServiceRow{}, err
	}
	return ServiceRow{
		Service: name,
		Local:   a.CheckLocalOrderPreserved() == nil,
		Causal:  a.CheckCausalOrderPreserved() == nil,
		Total:   a.CheckTotalOrderPreserved() == nil,
	}, nil
}

// asymmetricDelay gives each directed channel a distinct latency so
// arrivals interleave differently at every entity.
func asymmetricDelay(from, to pdu.EntityID, _ *rand.Rand) time.Duration {
	return time.Duration(1+(int(from)*3+int(to)*7)%5) * time.Millisecond
}
