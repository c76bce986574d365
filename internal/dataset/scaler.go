package dataset

import (
	"errors"
	"fmt"
	"math"
)

// Scaler standardizes features (and optionally the target) to zero mean and
// unit variance, the preprocessing every learner in the evaluation shares.
// Fit on the training split only, then apply to both splits, as usual.
type Scaler struct {
	Mean []float64
	Std  []float64
	// YMean and YStd standardize the target when ScaleTarget was set.
	YMean, YStd float64
	// ScaleTarget records whether the target is standardized too.
	ScaleTarget bool
}

// fitted reports whether the scaler holds statistics (it round-trips
// through checkpoints, so the check is structural).
func (s *Scaler) fitted() bool { return len(s.Mean) > 0 }

// FitScaler computes feature statistics (and target statistics when
// scaleTarget is set) from d.
func FitScaler(d *Dataset, scaleTarget bool) (*Scaler, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.Features()
	s := &Scaler{
		Mean:        make([]float64, n),
		Std:         make([]float64, n),
		ScaleTarget: scaleTarget,
	}
	m := float64(d.Len())
	for _, row := range d.X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	for j := range s.Mean {
		s.Mean[j] /= m
	}
	for _, row := range d.X {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.Std[j] += dv * dv
		}
	}
	for j := range s.Std {
		s.Std[j] = math.Sqrt(s.Std[j] / m)
		if s.Std[j] < 1e-12 {
			s.Std[j] = 1 // constant column: leave centered values at 0
		}
	}
	if scaleTarget {
		for _, y := range d.Y {
			s.YMean += y
		}
		s.YMean /= m
		for _, y := range d.Y {
			dy := y - s.YMean
			s.YStd += dy * dy
		}
		s.YStd = math.Sqrt(s.YStd / m)
		if s.YStd < 1e-12 {
			s.YStd = 1
		}
	} else {
		s.YStd = 1
	}
	return s, nil
}

// Transform returns a standardized copy of d.
func (s *Scaler) Transform(d *Dataset) (*Dataset, error) {
	if !s.fitted() {
		return nil, errors.New("dataset: scaler not fitted")
	}
	if d.Features() != len(s.Mean) {
		return nil, fmt.Errorf("dataset: scaler fitted on %d features, dataset has %d", len(s.Mean), d.Features())
	}
	out := d.Clone()
	for _, row := range out.X {
		for j := range row {
			row[j] = (row[j] - s.Mean[j]) / s.Std[j]
		}
	}
	if s.ScaleTarget {
		for i := range out.Y {
			out.Y[i] = (out.Y[i] - s.YMean) / s.YStd
		}
	}
	return out, nil
}

// TransformRow standardizes a single feature row in place.
func (s *Scaler) TransformRow(row []float64) error {
	if !s.fitted() {
		return errors.New("dataset: scaler not fitted")
	}
	if len(row) != len(s.Mean) {
		return fmt.Errorf("dataset: scaler fitted on %d features, row has %d", len(s.Mean), len(row))
	}
	for j := range row {
		row[j] = (row[j] - s.Mean[j]) / s.Std[j]
	}
	return nil
}

// InverseY maps a standardized prediction back to the original target units.
// It is the identity when the target was not scaled.
func (s *Scaler) InverseY(y float64) float64 {
	if !s.ScaleTarget {
		return y
	}
	return y*s.YStd + s.YMean
}

// ScaleY maps an original-unit target into standardized units.
func (s *Scaler) ScaleY(y float64) float64 {
	if !s.ScaleTarget {
		return y
	}
	return (y - s.YMean) / s.YStd
}
