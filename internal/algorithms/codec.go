// Package algorithms provides the vertex-centric graph programs the
// paper demonstrates on Vertexica: PageRank, single-source shortest
// paths, connected components, collaborative filtering, and random walk
// with restart (§3.1), plus small utility programs (degree counting).
//
// Vertex values and messages are strings (the vertex table stores
// VARCHAR), so each algorithm brings a codec — mirroring the paper's
// UDFs, which parse untyped tuples. Combiners are declared, so the
// runtime parses each message once and formats once per destination;
// what is left of the serialization tax (each Compute parsing its
// value and inbox, formatting what it sends) is still why the
// hand-tuned SQL implementations in package sqlgraph are faster, as in
// the paper's Figure 2.
package algorithms

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// formatFloat renders a float64 compactly and losslessly.
func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// parseFloat decodes a float; empty strings decode as +Inf (the
// "unreached" distance) and parse failures as def.
func parseFloat(s string, def float64) float64 {
	if s == "" {
		return def
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return def
	}
	return f
}

// inf is the encoded "unreached" distance.
var inf = math.Inf(1)

// encodeVec renders a latent-factor vector as comma-separated floats.
func encodeVec(v []float64) string {
	parts := make([]string, len(v))
	for i, f := range v {
		parts[i] = formatFloat(f)
	}
	return strings.Join(parts, ",")
}

// decodeVec parses a comma-separated float vector.
func decodeVec(s string, dim int) ([]float64, error) {
	if s == "" {
		return nil, fmt.Errorf("algorithms: empty vector")
	}
	parts := strings.Split(s, ",")
	if len(parts) != dim {
		return nil, fmt.Errorf("algorithms: vector has %d components, want %d", len(parts), dim)
	}
	out := make([]float64, dim)
	for i, p := range parts {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("algorithms: bad vector component %q", p)
		}
		out[i] = f
	}
	return out, nil
}

// dot is the inner product of two equal-length vectors.
func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// pseudoRand returns a deterministic pseudo-random float in (0, 1)
// derived from a seed — used to initialize latent vectors identically
// across systems without math/rand state.
func pseudoRand(seed int64) float64 {
	x := uint64(seed)*6364136223846793005 + 1442695040888963407
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x%1000003)/1000003.0*0.9 + 0.05
}
