package experiments

import (
	"fmt"
	"strings"

	"cobcast/internal/core"
	"cobcast/internal/metrics"
	"cobcast/internal/pdu"
)

// Table1Result is experiment E2: the Figure 7 exchange replayed through
// the real engine, with every SEQ/ACK field (Table 1 of the paper) and
// E3's resulting log state (Example 4.1).
type Table1Result struct {
	// PDUs maps the paper's PDU names (a..h) to the engine-produced PDUs.
	PDUs map[string]*pdu.PDU
	// Order is the paper's presentation order a..h.
	Order []string
	// PRL is E3's pre-acknowledged log (by paper name) after the
	// exchange; Delivered is what E3 has acknowledged and delivered.
	PRL       []string
	Delivered []string
	// REQ3 is E3's next-expected vector after the exchange.
	REQ3 []pdu.Seq
}

// Table1 replays Example 4.1 / Figure 7 and returns the regenerated
// Table 1.
func Table1() (*Table1Result, error) {
	// Each entity holds one batch open for the whole exchange and never
	// releases it, so it sends no deferred confirmation: the eight PDUs
	// of Figure 7 are all there is on the wire.
	newEnt := func(id pdu.EntityID) (*core.Entity, error) {
		e, err := core.New(core.Config{ID: id, N: 3, Window: 64})
		if err == nil {
			e.Hold()
		}
		return e, err
	}
	e1, err := newEnt(0)
	if err != nil {
		return nil, err
	}
	e2, err := newEnt(1)
	if err != nil {
		return nil, err
	}
	e3, err := newEnt(2)
	if err != nil {
		return nil, err
	}

	res := &Table1Result{
		PDUs:  make(map[string]*pdu.PDU, 8),
		Order: []string{"a", "b", "c", "d", "e", "f", "g", "h"},
	}
	var e3Delivered []core.Delivery

	submit := func(e *core.Entity, name string) error {
		out := e.Submit([]byte(name), 0)
		if len(out.PDUs) != 1 {
			return fmt.Errorf("table1: submit %q produced %d PDUs", name, len(out.PDUs))
		}
		res.PDUs[name] = out.PDUs[0]
		return nil
	}
	recv := func(e *core.Entity, name string) error {
		out, err := e.Receive(res.PDUs[name].Clone(), 0)
		if err != nil {
			return fmt.Errorf("table1: receive %q: %w", name, err)
		}
		if e == e3 {
			e3Delivered = append(e3Delivered, out.Deliveries...)
		}
		return nil
	}

	// The Figure 7 exchange.
	if err := submit(e1, "a"); err != nil {
		return nil, err
	}
	if err := recv(e3, "a"); err != nil {
		return nil, err
	}
	if err := submit(e3, "b"); err != nil {
		return nil, err
	}
	if err := submit(e1, "c"); err != nil {
		return nil, err
	}
	for _, name := range []string{"a", "c", "b"} {
		if err := recv(e2, name); err != nil {
			return nil, err
		}
	}
	if err := submit(e2, "d"); err != nil {
		return nil, err
	}
	for _, name := range []string{"d", "b"} {
		if err := recv(e1, name); err != nil {
			return nil, err
		}
	}
	if err := submit(e1, "e"); err != nil {
		return nil, err
	}
	if err := submit(e1, "f"); err != nil {
		return nil, err
	}
	if err := recv(e2, "e"); err != nil {
		return nil, err
	}
	if err := submit(e2, "g"); err != nil {
		return nil, err
	}
	for _, name := range []string{"c", "d", "e", "f", "g"} {
		if err := recv(e3, name); err != nil {
			return nil, err
		}
	}
	if err := submit(e3, "h"); err != nil {
		return nil, err
	}

	name := func(p *pdu.PDU) string {
		for _, n := range res.Order {
			q := res.PDUs[n]
			if q.Src == p.Src && q.SEQ == p.SEQ {
				return n
			}
		}
		return p.String()
	}
	for _, p := range e3.PRLSnapshot() {
		res.PRL = append(res.PRL, name(p))
	}
	for _, d := range e3Delivered {
		res.Delivered = append(res.Delivered, string(d.Data))
	}
	res.REQ3 = e3.REQ()
	return res, nil
}

// Render formats the result in the shape of Table 1.
func (r *Table1Result) Render() string {
	tbl := metrics.NewTable("Table 1: SEQ and ACK fields (regenerated)", "PDU", "SRC", "SEQ", "ACK")
	for _, n := range r.Order {
		p := r.PDUs[n]
		ack := make([]string, len(p.ACK))
		for i, a := range p.ACK {
			ack[i] = fmt.Sprintf("%d", a)
		}
		tbl.AddRow(n, fmt.Sprintf("E%d", p.Src+1), p.SEQ, "<"+strings.Join(ack, ",")+">")
	}
	var b strings.Builder
	b.WriteString(tbl.String())
	fmt.Fprintf(&b, "\nE3 after the exchange (Example 4.1):\n")
	fmt.Fprintf(&b, "  REQ        = %v\n", r.REQ3)
	fmt.Fprintf(&b, "  delivered  = %v\n", r.Delivered)
	fmt.Fprintf(&b, "  PRL        = <%s]\n", strings.Join(r.PRL, " "))
	return b.String()
}
