package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	fademl "repro"
)

func TestSameSeedSameBodies(t *testing.T) {
	a, b := newGenerator(7), newGenerator(7)
	for _, stream := range []uint64{streamProbe, streamNominal, streamRung + 3, streamPool} {
		for i := uint64(0); i < 20; i++ {
			la, lb := a.lane(stream, i), b.lane(stream, i)
			if la != lb {
				t.Fatalf("stream %d index %d: lanes %v and %v", stream, i, la, lb)
			}
			if !bytes.Equal(predictBody(a.image(stream, i), la), predictBody(b.image(stream, i), lb)) {
				t.Fatalf("stream %d index %d: bodies differ for one seed", stream, i)
			}
		}
	}
	pa := [][]float64{a.image(streamBatch, 0), a.image(streamBatch, 1)}
	pb := [][]float64{b.image(streamBatch, 0), b.image(streamBatch, 1)}
	if !bytes.Equal(batchBody(pa, fademl.PrecisionFloat32), batchBody(pb, fademl.PrecisionFloat32)) {
		t.Fatal("batch bodies differ for one seed")
	}
	da, db := a.hotDraws(streamNominal, 500), b.hotDraws(streamNominal, 500)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("hot draw %d: %d and %d", i, da[i], db[i])
		}
	}
}

func TestDifferentSeedDifferentBodies(t *testing.T) {
	a, b := newGenerator(7), newGenerator(8)
	for i := uint64(0); i < 20; i++ {
		if bytes.Equal(predictBody(a.image(streamNominal, i), fademl.PrecisionFloat64), predictBody(b.image(streamNominal, i), fademl.PrecisionFloat64)) {
			t.Fatalf("index %d: seeds 7 and 8 give the same body", i)
		}
	}
	da, db := a.hotDraws(streamNominal, 200), b.hotDraws(streamNominal, 200)
	same := 0
	for i := range da {
		if da[i] == db[i] {
			same++
		}
	}
	if same == len(da) {
		t.Fatal("seeds 7 and 8 draw the same hot sequence")
	}
}

// TestFreshImagesUnique covers the streams one fresh run draws from:
// nominal, traced, probes, every ladder rung (both tries) and batch
// segments.
func TestFreshImagesUnique(t *testing.T) {
	g := newGenerator(3)
	seen := dedup{}
	add := func(stream uint64, n int) {
		for i := 0; i < n; i++ {
			if !seen.add(g.image(stream, uint64(i))) {
				t.Fatalf("stream %d index %d repeats an earlier image", stream, i)
			}
		}
	}
	add(streamProbe, 200)
	add(streamNominal, 1000)
	add(streamTraced, 500)
	for k := uint64(0); k < 64; k++ {
		add(streamRung+k, 60)
		add(streamRung+k+1<<8, 60)
	}
	for seg := uint64(0); seg < 4; seg++ {
		add(streamBatch+seg, batchSegment*batchSize)
	}
	if seen.add(g.image(streamNominal, 5)) {
		t.Fatal("dedup accepted a repeated image")
	}
}

// TestPixelsInDomain: every pixel is finite, in [0, 1], and the body
// carries exactly those values.
func TestPixelsInDomain(t *testing.T) {
	g := newGenerator(11)
	for i := uint64(0); i < 200; i++ {
		px := g.image(streamNominal, i)
		if len(px) != 3*imgSize*imgSize {
			t.Fatalf("image %d has %d pixels", i, len(px))
		}
		for j, v := range px {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
				t.Fatalf("image %d pixel %d = %v outside [0, 1]", i, j, v)
			}
		}
		var body struct {
			Pixels    []float64 `json:"pixels"`
			Shape     []int     `json:"shape"`
			TM        string    `json:"tm"`
			Precision string    `json:"precision"`
		}
		if err := json.Unmarshal(predictBody(px, fademl.PrecisionFloat32), &body); err != nil {
			t.Fatal(err)
		}
		if body.TM != "2" || body.Precision != "float32" || len(body.Shape) != 3 {
			t.Fatalf("body fields %q %q %v", body.TM, body.Precision, body.Shape)
		}
		for j := range px {
			if math.Float64bits(body.Pixels[j]) != math.Float64bits(px[j]) {
				t.Fatalf("image %d pixel %d: body carries %v, generated %v", i, j, body.Pixels[j], px[j])
			}
		}
	}
}

func TestLanesSplitEvenly(t *testing.T) {
	g := newGenerator(5)
	n32 := 0
	const n = 4000
	for i := uint64(0); i < n; i++ {
		if g.lane(streamNominal, i) == fademl.PrecisionFloat32 {
			n32++
		}
	}
	if share := float64(n32) / n; share < 0.45 || share > 0.55 {
		t.Fatalf("float32 share %.3f, want about 0.5", share)
	}
}
