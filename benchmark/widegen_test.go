package main

import (
	"bytes"
	"context"
	"testing"
)

func wideBytes(t *testing.T, clients int, seed uint64) []byte {
	t.Helper()
	tr, err := generateWide(clients, seed)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Packets) != 6*clients || tr.Flows != clients || len(tr.Truth) != clients {
		t.Fatalf("%d packets, %d flows, %d truths for %d clients", len(tr.Packets), tr.Flows, len(tr.Truth), clients)
	}
	var b bytes.Buffer
	for _, p := range tr.Packets {
		b.WriteString(p.Timestamp.String())
		b.Write(p.Data)
	}
	return b.Bytes()
}

func TestWideDeterministic(t *testing.T) {
	a, b := wideBytes(t, 500, 7), wideBytes(t, 500, 7)
	if !bytes.Equal(a, b) {
		t.Fatal("two generations from one seed differ")
	}
	if bytes.Equal(a, wideBytes(t, 500, 8)) {
		t.Fatal("a different seed generated the same trace")
	}
}

// Every flow of the wide trace follows its own DNS response, so a
// single-shard run must label every one of them with its ground truth.
func TestWideLabelsEveryFlow(t *testing.T) {
	w, err := findWorkload("batch-wide")
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.generate(3, smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	b := &batchRunner{w: w, in: in}
	r, res, err := b.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.accuracy != 1 || r.truthFlows != smokeSizes.WideClients || res.Stats.Flows != uint64(smokeSizes.WideClients) {
		t.Fatalf("label accuracy %v over %d flows with truth (%d emitted), want 1 over %d",
			r.accuracy, r.truthFlows, res.Stats.Flows, smokeSizes.WideClients)
	}
	if r.stats.Labeled != r.stats.Flows || r.stats.DNS != uint64(smokeSizes.WideClients) {
		t.Fatalf("stats %+v: want every flow labeled and one DNS response per client", r.stats)
	}
}
