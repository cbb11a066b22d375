package main

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"

	fademl "repro"
)

// Workload inputs are a pure function of the seed: every image is a
// seeded in-domain perturbation of a canonical GTSRB sign, addressed by
// (stream, index). Phases draw from their own streams, so the images a
// phase sends do not depend on how many requests earlier phases made.
const (
	imgSize = 32 // the tiny profile's input side
	// perturbAmp bounds the per-pixel perturbation. Small enough that the
	// image stays a recognisable sign, large enough that no two images
	// collide after quantisation.
	perturbAmp = 0.06
	// quantum is the pixel grid: three decimals keeps bodies near the
	// size of an 8-bit image sent as JSON numbers.
	quantum = 1000
	// hotPool is the predict_hot working set.
	hotPool = 64
)

// Stream ids. Ladder rung k uses streamRung+k.
const (
	streamNominal uint64 = iota + 1
	streamTraced
	streamProbe
	streamPool
	streamBatch = 1 << 20
	streamRung  = 1 << 30
)

type generator struct {
	seed  uint64
	canon [][]float64
}

func newGenerator(seed uint64) *generator {
	g := &generator{seed: seed, canon: make([][]float64, fademl.NumClasses)}
	for c := range g.canon {
		g.canon[c] = fademl.CanonicalSign(c, imgSize).Data()
	}
	return g
}

func (g *generator) rng(stream, idx uint64) *rand.Rand {
	return rand.New(rand.NewPCG(g.seed, stream<<32^idx))
}

// image returns image idx of a stream: a seeded class's canonical sign
// plus uniform noise in ±perturbAmp, clamped to [0, 1] and quantised.
func (g *generator) image(stream, idx uint64) []float64 {
	r := g.rng(stream, idx)
	base := g.canon[r.IntN(len(g.canon))]
	px := make([]float64, len(base))
	for i, v := range base {
		v += (2*r.Float64() - 1) * perturbAmp
		px[i] = math.Round(min(max(v, 0), 1)*quantum) / quantum
	}
	return px
}

// lane draws the precision lane of request idx of a stream, 50/50.
func (g *generator) lane(stream, idx uint64) fademl.Precision {
	if g.rng(stream^0x1a4e, idx).IntN(2) == 0 {
		return fademl.PrecisionFloat64
	}
	return fademl.PrecisionFloat32
}

// hotDraws returns n skewed picks from the hot pool (Zipf, s=1.2): a few
// signs dominate, as popular inputs do in real traffic.
func (g *generator) hotDraws(stream uint64, n int) []int {
	r := g.rng(stream^0x2f0f, 0)
	z := rand.NewZipf(r, 1.2, 1, hotPool-1)
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// checkIndex picks which image of batch request idx is checked bit for
// bit against the in-process reference.
func (g *generator) checkIndex(stream, idx uint64, n int) int {
	return g.rng(stream^0x3c3c, idx).IntN(n)
}

func appendImage(b []byte, px []float64) []byte {
	b = append(b, `{"pixels":[`...)
	for i, v := range px {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	return append(b, `],"shape":[3,32,32]`...)
}

// predictBody is a /v1/predict body under TM-II on lane.
func predictBody(px []float64, lane fademl.Precision) []byte {
	b := appendImage(make([]byte, 0, 6*len(px)+96), px)
	b = append(b, `,"tm":"2","precision":"`...)
	b = append(b, lane.String()...)
	return append(b, `"}`...)
}

// batchBody is a /v1/predict_batch body under TM-II on lane.
func batchBody(pxs [][]float64, lane fademl.Precision) []byte {
	b := append(make([]byte, 0, len(pxs)*(6*3*imgSize*imgSize+32)+96), `{"images":[`...)
	for i, px := range pxs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendImage(b, px), '}')
	}
	b = append(b, `],"tm":"2","precision":"`...)
	b = append(b, lane.String()...)
	return append(b, `"}`...)
}

// dedup rejects a repeated image within one run of a fresh workload.
type dedup map[uint64]struct{}

func (d dedup) add(px []float64) bool {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range px {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	k := h.Sum64()
	if _, dup := d[k]; dup {
		return false
	}
	d[k] = struct{}{}
	return true
}
