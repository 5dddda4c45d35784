package main

import "testing"

func smallProbe(t *testing.T, w workload, seed int64) (*engineProbe, codecProbe) {
	t.Helper()
	ep, err := probeEngine(engineProbeSpec{n: clusterSize, groups: w.groups, loss: w.loss, rate: w.rate, msgs: 1500, seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cp, err := probeCodec(ep, w.groups)
	if err != nil {
		t.Fatal(err)
	}
	return ep, cp
}

// The engine probe runs on one goroutine in virtual time, so its counts
// must repeat exactly under one seed; only then can a later change be
// judged by them.
func TestEngineProbeCountsRepeat(t *testing.T) {
	for _, w := range workloads {
		a, ca := smallProbe(t, w, 7)
		b, cb := smallProbe(t, w, 7)
		if a.receivesPerMsg != b.receivesPerMsg || a.pdusPerMsg != b.pdusPerMsg || ca.bytesPerMsg != cb.bytesPerMsg {
			t.Errorf("%s: same seed, different counts: receives %v/%v, pdus %v/%v, bytes %v/%v", w.name,
				a.receivesPerMsg, b.receivesPerMsg, a.pdusPerMsg, b.pdusPerMsg, ca.bytesPerMsg, cb.bytesPerMsg)
		}
		if a.receivesPerMsg == 0 || a.pdusPerMsg < 1 || ca.bytesPerMsg <= payloadSize {
			t.Errorf("%s: implausible counts: %v receives, %v PDUs, %v bytes per message", w.name,
				a.receivesPerMsg, a.pdusPerMsg, ca.bytesPerMsg)
		}
	}
}

func TestEngineProbeSeedMovesLossyCounts(t *testing.T) {
	w, _ := findWorkload("mem-lossy")
	a, _ := smallProbe(t, w, 7)
	b, _ := smallProbe(t, w, 8)
	if a.receivesPerMsg == b.receivesPerMsg && a.pdusPerMsg == b.pdusPerMsg {
		t.Errorf("seeds 7 and 8 drew the same drop pattern: %v receives, %v PDUs per message", a.receivesPerMsg, a.pdusPerMsg)
	}
}

func TestLayerProbesRun(t *testing.T) {
	w, _ := findWorkload("mem-lossy")
	ep, _ := smallProbe(t, w, 3)
	if ns := probeLog(ep, clusterSize); ns <= 0 {
		t.Errorf("log probe: %v ns per insert", ns)
	}
	if ns, err := probeNetwork(ep, clusterSize); err != nil || ns <= 0 {
		t.Errorf("network probe: %v ns per PDU, err %v", ns, err)
	}
}
