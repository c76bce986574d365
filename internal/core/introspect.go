package core

import (
	"fmt"

	"reghd/internal/hdc"
)

// AssignCluster returns the index of the most similar cluster hypervector
// for x along with all cluster similarities — the run-time clustering the
// paper pairs with regression, exposed for inspection. Single-model
// configurations always report cluster 0. It is part of the paper's
// interpretability story: the assignment explains *which* regression model
// answered a query.
func (m *Model) AssignCluster(x []float64) (cluster int, similarities []float64, err error) {
	if m.cfg.Models == 1 {
		return 0, []float64{1}, nil
	}
	sc := m.scratch.get()
	defer m.scratch.put(sc)
	e, err := m.encode(nil, x, sc)
	if err != nil {
		return 0, nil, err
	}
	sims := make([]float64, m.cfg.Models)
	m.clusterSimilaritiesInto(nil, e, sims)
	return hdc.Argmax(nil, sims), sims, nil
}

// ClusterUsage counts how many of the rows each cluster attracts — a
// histogram of AssignCluster over xs, used to inspect whether the run-time
// clustering balances the input distribution or collapsed onto few centers.
func (m *Model) ClusterUsage(xs [][]float64) ([]int, error) {
	usage := make([]int, m.cfg.Models)
	for _, x := range xs {
		c, _, err := m.AssignCluster(x)
		if err != nil {
			return nil, err
		}
		usage[c]++
	}
	return usage, nil
}

// BinaryClusterSnapshot returns cluster i's bit-packed shadow: the live
// shadow for quantized cluster modes, or a fresh sign-quantization of the
// integer cluster otherwise. Single-model configurations have no clusters.
func (m *Model) BinaryClusterSnapshot(i int) (*hdc.Binary, error) {
	if m.clusters == nil {
		return nil, fmt.Errorf("core: single-model configuration has no clusters")
	}
	if i < 0 || i >= m.cfg.Models {
		return nil, fmt.Errorf("core: cluster index %d out of range [0,%d)", i, m.cfg.Models)
	}
	if m.clustersBin != nil {
		return m.clustersBin[i].Clone(), nil
	}
	return hdc.Pack(nil, m.clusters[i]), nil
}

// BinaryModelSnapshot returns model i's bit-packed shadow (live, or freshly
// quantized from the integer model for integer-model configurations).
func (m *Model) BinaryModelSnapshot(i int) (*hdc.Binary, error) {
	if i < 0 || i >= m.cfg.Models {
		return nil, fmt.Errorf("core: model index %d out of range [0,%d)", i, m.cfg.Models)
	}
	if m.modelsBin != nil {
		return m.modelsBin[i].Clone(), nil
	}
	return hdc.Pack(nil, m.models[i]), nil
}

// EncodeBinary returns the bit-packed bipolar encoding of x — the query
// representation a binary hardware deployment consumes.
func (m *Model) EncodeBinary(x []float64) (*hdc.Binary, error) {
	sc := m.scratch.get()
	defer m.scratch.put(sc)
	e, err := m.encode(nil, x, sc)
	if err != nil {
		return nil, err
	}
	return e.packed.Clone(), nil
}

// DeploymentBytes reports the storage the deployed predictor needs for its
// model state — the quantity the paper's embedded-device motivation cares
// about. Binary-model configurations store k·D bits plus one scale per
// model; integer configurations store k·D float64 words. Cluster state
// counts the same way (binary shadows for the quantized cluster modes,
// dense vectors otherwise; single-model configurations have none). The
// encoder's projection matrix is excluded: embedded HD implementations
// regenerate base hypervectors from a seed instead of storing them.
func (m *Model) DeploymentBytes() int {
	bits := func(n int) int { return ((n + 63) / 64) * 8 }
	var total int
	if m.cfg.PredictMode.UsesBinaryModel() {
		total += m.cfg.Models * (bits(m.dim) + 8) // sign bits + scale
		total += 16                               // output calibration (a, b)
	} else {
		total += m.cfg.Models * m.dim * 8
	}
	if m.cfg.Models > 1 {
		if m.cfg.ClusterMode == ClusterInteger {
			total += m.cfg.Models * m.dim * 8
		} else {
			total += m.cfg.Models * bits(m.dim)
		}
	}
	return total
}
