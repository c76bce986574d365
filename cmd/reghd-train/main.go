// Command reghd-train trains a RegHD model on a CSV dataset (last column is
// the target) and reports held-out quality, so the genuine UCI datasets can
// be evaluated by dropping in their CSV files.
//
// Usage:
//
//	reghd-train -data housing.csv -header -models 8 -dim 4000
//	reghd-train -synth ccpp -models 8
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"reghd"
	"reghd/internal/dtree"
	"reghd/internal/learner"
	"reghd/internal/linreg"
	"reghd/internal/mlp"
	"reghd/internal/svr"
	"reghd/internal/tune"
)

func run() error {
	var (
		dataPath  = flag.String("data", "", "CSV dataset path (last column = target)")
		header    = flag.Bool("header", false, "CSV has a header row")
		synthName = flag.String("synth", "", "built-in synthetic dataset name (alternative to -data)")
		models    = flag.Int("models", 8, "number of cluster/model pairs k")
		dim       = flag.Int("dim", 4000, "hypervector dimensionality D")
		epochs    = flag.Int("epochs", 40, "maximum training epochs")
		alpha     = flag.Float64("lr", 0.1, "learning rate")
		testFrac  = flag.Float64("test", 0.25, "held-out test fraction")
		seed      = flag.Int64("seed", 1, "random seed")
		binCl     = flag.Bool("binary-cluster", false, "use quantized (Hamming) clustering")
		predict   = flag.String("predict", "bquery-imodel", "prediction kernel: full | bquery-imodel | iquery-bmodel | bquery-bmodel")
		saveTo    = flag.String("save", "", "write the fitted pipeline (model + scaler) to this checkpoint file")
		sparsity  = flag.Float64("sparsify", 0, "after training, zero this fraction of the lowest-magnitude model components")
		grid      = flag.Bool("grid", false, "grid-search k and the learning rate with 4-fold CV before training")
		compare   = flag.Bool("compare", false, "also evaluate the DNN/ridge/tree/SVR baselines on the same split")
		workers   = flag.Int("workers", 1, "sharded training workers (1 = sequential Fit; see docs/TRAINING.md)")
	)
	flag.Parse()

	var (
		ds  *reghd.Dataset
		err error
	)
	switch {
	case *dataPath != "":
		ds, err = reghd.LoadCSV(*dataPath, *dataPath, *header)
	case *synthName != "":
		ds, err = reghd.SyntheticDataset(*synthName, *seed)
	default:
		return fmt.Errorf("one of -data or -synth is required")
	}
	if err != nil {
		return err
	}

	pm := map[string]reghd.PredictMode{
		"full":          reghd.PredictFull,
		"bquery-imodel": reghd.PredictBinaryQuery,
		"iquery-bmodel": reghd.PredictBinaryModel,
		"bquery-bmodel": reghd.PredictBinaryBoth,
	}
	mode, ok := pm[*predict]
	if !ok {
		return fmt.Errorf("unknown -predict %q", *predict)
	}

	rng := rand.New(rand.NewSource(*seed))
	train, test, err := ds.Split(rng, *testFrac)
	if err != nil {
		return err
	}

	if *grid {
		best, err := gridSearch(train, *dim, *epochs, *seed, mode)
		if err != nil {
			return err
		}
		*models = best.k
		*alpha = best.lr
		fmt.Printf("grid picked: k=%d lr=%g\n", best.k, best.lr)
	}

	enc, err := reghd.NewEncoder(ds.Features(), *dim, *seed+7)
	if err != nil {
		return err
	}
	cfg := reghd.DefaultConfig()
	cfg.Models = *models
	cfg.Epochs = *epochs
	cfg.LearningRate = *alpha
	cfg.Seed = *seed + 13
	cfg.PredictMode = mode
	if *binCl {
		cfg.ClusterMode = reghd.ClusterBinary
	}
	model, err := reghd.NewModel(enc, cfg)
	if err != nil {
		return err
	}
	pipe := reghd.NewPipeline(model)
	var res *reghd.TrainResult
	var pres *reghd.ParallelTrainResult
	if *workers > 1 {
		pres, err = pipe.FitParallel(train, *workers)
		if err != nil {
			return err
		}
		res = &pres.TrainResult
	} else {
		res, err = pipe.Fit(train)
		if err != nil {
			return err
		}
	}
	if *sparsity > 0 {
		if err := model.Sparsify(*sparsity); err != nil {
			return err
		}
	}
	if *saveTo != "" {
		if err := pipe.SaveFile(*saveTo); err != nil {
			return err
		}
	}
	trainMSE, err := pipe.Evaluate(train)
	if err != nil {
		return err
	}
	testMSE, err := pipe.Evaluate(test)
	if err != nil {
		return err
	}
	preds, err := pipe.PredictBatch(test.X)
	if err != nil {
		return err
	}
	r2, err := reghd.R2(preds, test.Y)
	if err != nil {
		return err
	}

	fmt.Printf("dataset:    %s (%d samples, %d features)\n", ds.Name, ds.Len(), ds.Features())
	fmt.Printf("model:      k=%d D=%d %s/%s\n", *models, *dim, cfg.ClusterMode, cfg.PredictMode)
	fmt.Printf("training:   %d epochs (converged=%v)\n", res.Epochs, res.Converged)
	if pres != nil {
		fmt.Printf("parallel:   %d workers, %d merges (%.2fms merge time), %.0f rows/s\n",
			pres.Workers, pres.Merges, float64(pres.MergeNS)/1e6, pres.RowsPerSec)
	}
	fmt.Printf("train MSE:  %.4f\n", trainMSE)
	fmt.Printf("test  MSE:  %.4f\n", testMSE)
	fmt.Printf("test  R2:   %.4f\n", r2)
	if *compare {
		if err := compareBaselines(train, test, *seed); err != nil {
			return err
		}
	}
	if *sparsity > 0 {
		fmt.Printf("sparsity:   %.1f%% of model components zeroed\n", model.ModelSparsity()*100)
	}
	if *saveTo != "" {
		fmt.Printf("saved:      %s\n", *saveTo)
	}
	return nil
}

// compareBaselines evaluates the classical baselines on the same split,
// with the experiment pipeline's standardization, and prints a mini
// Table 1 for the user's dataset.
func compareBaselines(train, test *reghd.Dataset, seed int64) error {
	sc, err := reghd.FitScaler(train, true)
	if err != nil {
		return err
	}
	trainS, err := sc.Transform(train)
	if err != nil {
		return err
	}
	testS, err := sc.Transform(test)
	if err != nil {
		return err
	}
	baselines := []struct {
		name string
		mk   func() (learner.Regressor, error)
	}{
		{"dnn", func() (learner.Regressor, error) {
			cfg := mlp.DefaultConfig()
			cfg.Seed = seed
			return mlp.New(train.Features(), cfg)
		}},
		{"linreg", func() (learner.Regressor, error) { return linreg.New(linreg.Config{Lambda: 1}) }},
		{"dtree", func() (learner.Regressor, error) { return dtree.New(dtree.DefaultConfig()) }},
		{"svr", func() (learner.Regressor, error) {
			cfg := svr.DefaultConfig()
			cfg.Seed = seed
			return svr.New(cfg)
		}},
	}
	fmt.Println("baselines on the same split:")
	for _, b := range baselines {
		r, err := b.mk()
		if err != nil {
			return err
		}
		if err := r.Fit(trainS); err != nil {
			return fmt.Errorf("fitting %s: %w", b.name, err)
		}
		preds, err := learner.PredictBatch(r, testS.X)
		if err != nil {
			return err
		}
		for i := range preds {
			preds[i] = sc.InverseY(preds[i])
		}
		mse, err := reghd.MSE(preds, test.Y)
		if err != nil {
			return err
		}
		fmt.Printf("  %-8s test MSE: %.4f\n", b.name, mse)
	}
	return nil
}

// gridChoice is a grid-search winner.
type gridChoice struct {
	k  int
	lr float64
}

// gridSearch cross-validates RegHD over model counts and learning rates
// (the paper's grid-search protocol) and returns the best combination.
func gridSearch(train *reghd.Dataset, dim, epochs int, seed int64, mode reghd.PredictMode) (gridChoice, error) {
	var candidates []tune.Candidate
	choices := map[string]gridChoice{}
	for _, k := range []int{1, 4, 8, 16} {
		for _, lr := range []float64{0.05, 0.1, 0.3} {
			k, lr := k, lr
			name := fmt.Sprintf("k=%d lr=%g", k, lr)
			choices[name] = gridChoice{k: k, lr: lr}
			candidates = append(candidates, tune.Candidate{
				Name: name,
				Make: func() (learner.Regressor, error) {
					enc, err := reghd.NewEncoder(train.Features(), dim, seed+7)
					if err != nil {
						return nil, err
					}
					cfg := reghd.DefaultConfig()
					cfg.Models = k
					cfg.LearningRate = lr
					cfg.Epochs = epochs
					cfg.Seed = seed + 13
					cfg.PredictMode = mode
					m, err := reghd.NewModel(enc, cfg)
					if err != nil {
						return nil, err
					}
					return &gridLearner{m: m}, nil
				},
			})
		}
	}
	res, err := tune.GridSearch(train, 4, seed+31, candidates)
	if err != nil {
		return gridChoice{}, err
	}
	fmt.Print(res.Render())
	return choices[res.Best], nil
}

// gridLearner adapts a reghd.Model to the tuner's learner contract.
type gridLearner struct{ m *reghd.Model }

func (g *gridLearner) Name() string { return "reghd" }
func (g *gridLearner) Fit(d *reghd.Dataset) error {
	_, err := g.m.Fit(d)
	return err
}
func (g *gridLearner) Predict(x []float64) (float64, error) { return g.m.Predict(x) }

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reghd-train:", err)
		os.Exit(1)
	}
}
