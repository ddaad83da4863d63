// Command relm-train trains the tokenizer and language model on a corpus
// and saves both as JSON artifacts, which cmd/relm-query style workflows (or
// library users via tokenizer.LoadBPE / model.LoadNGram) can reload without
// retraining.
//
// Usage:
//
//	relm-train -out ./artifacts                 # built-in synthetic corpus
//	relm-train -corpus lines.txt -out ./artifacts -merges 1500 -order 6
//	relm-train -out ./artifacts -verify         # round-trip check after save
//
// relm-train only trains and serializes; the batched/parallel execution
// knobs (-batch, -parallelism — DESIGN.md decision 6) live on the commands
// that run queries: cmd/relm and cmd/relm-bench. Load the saved artifacts
// there (relm -artifacts ./artifacts -parallelism 8 ...) to query them with
// a parallel executor.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/model"
	"repro/internal/tokenizer"
)

func main() {
	corpusPath := flag.String("corpus", "", "newline-delimited training corpus (default: built-in synthetic world)")
	outDir := flag.String("out", "artifacts", "output directory")
	merges := flag.Int("merges", 2000, "BPE merge budget")
	order := flag.Int("order", 8, "n-gram order")
	maxSeq := flag.Int("maxseq", 64, "model context window (tokens)")
	lambda := flag.Float64("lambda", 0.9, "interpolation weight")
	cacheW := flag.Float64("cache", 0.3, "context-cache weight")
	arch := flag.String("arch", "ngram", "model architecture: ngram | transformer")
	epochs := flag.Int("epochs", 4, "transformer training epochs")
	dmodel := flag.Int("dmodel", 32, "transformer residual width")
	layers := flag.Int("layers", 2, "transformer block count")
	verify := flag.Bool("verify", false, "reload artifacts and verify round trip")
	flag.Parse()

	cfg := trainConfig{
		merges: *merges, order: *order, maxSeq: *maxSeq,
		lambda: *lambda, cacheW: *cacheW,
		arch: *arch, epochs: *epochs, dModel: *dmodel, layers: *layers,
	}
	if err := run(*corpusPath, *outDir, cfg, *verify); err != nil {
		fmt.Fprintln(os.Stderr, "relm-train:", err)
		os.Exit(1)
	}
}

// transformerHeads is the attention head count of a trained transformer;
// -dmodel must split evenly across it.
const transformerHeads = 2

type trainConfig struct {
	merges, order, maxSeq  int
	lambda, cacheW         float64
	arch                   string
	epochs, dModel, layers int
}

func run(corpusPath, outDir string, cfg trainConfig, verify bool) error {
	merges, order, maxSeq, lambda, cacheW := cfg.merges, cfg.order, cfg.maxSeq, cfg.lambda, cfg.cacheW
	if cfg.arch == "transformer" && cfg.dModel%transformerHeads != 0 {
		return fmt.Errorf("-dmodel %d is not a multiple of the head count %d", cfg.dModel, transformerHeads)
	}
	var lines []string
	if corpusPath == "" {
		fmt.Println("no -corpus given; using the built-in synthetic world")
		lines = experiments.NewEnv(experiments.EnvConfig{Scale: experiments.Quick}).Corpus
	} else {
		f, err := os.Open(corpusPath)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if line := sc.Text(); line != "" {
				lines = append(lines, line)
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	fmt.Printf("training on %d lines: BPE (%d merges) ...\n", len(lines), merges)
	tok := tokenizer.Train(lines, merges)
	fmt.Printf("  %s\n", tok)

	var lm model.LanguageModel
	var save func(io.Writer) error
	var load func(io.Reader) (model.LanguageModel, error)
	switch cfg.arch {
	case "ngram":
		fmt.Printf("training order-%d n-gram ...\n", order)
		ng := model.TrainNGram(lines, tok, model.NGramConfig{
			Order: order, MaxSeqLen: maxSeq, Lambda: lambda, CacheWeight: cacheW,
		})
		fmt.Printf("  observed contexts per order: %v\n", ng.ObservedContexts())
		lm, save = ng, ng.Save
		load = func(r io.Reader) (model.LanguageModel, error) { return model.LoadNGram(r) }
	case "transformer":
		fmt.Printf("training %d-layer d=%d transformer (%d epochs) ...\n", cfg.layers, cfg.dModel, cfg.epochs)
		tr := model.TrainTransformer(lines, tok, model.TransformerConfig{
			DModel: cfg.dModel, NHeads: transformerHeads, NLayers: cfg.layers, MaxSeqLen: maxSeq, Epochs: cfg.epochs,
		})
		fmt.Printf("  final mean cross-entropy: %.3f nats/token\n", tr.Loss(lines, tok))
		lm, save = tr, tr.Save
		load = func(r io.Reader) (model.LanguageModel, error) { return model.LoadTransformer(r) }
	default:
		return fmt.Errorf("unknown -arch %q (ngram | transformer)", cfg.arch)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tokPath := filepath.Join(outDir, "tokenizer.json")
	lmPath := filepath.Join(outDir, "model.json")
	if err := saveTo(tokPath, tok.Save); err != nil {
		return err
	}
	if err := saveTo(lmPath, save); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", tokPath, lmPath)

	if verify {
		tf, err := os.Open(tokPath)
		if err != nil {
			return err
		}
		defer tf.Close()
		tok2, err := tokenizer.LoadBPE(tf)
		if err != nil {
			return fmt.Errorf("verify tokenizer: %w", err)
		}
		mf, err := os.Open(lmPath)
		if err != nil {
			return err
		}
		defer mf.Close()
		lm2, err := load(mf)
		if err != nil {
			return fmt.Errorf("verify model: %w", err)
		}
		probe := "The man was trained in"
		a := model.SequenceLogProb(lm, tok.Encode(probe))
		b := model.SequenceLogProb(lm2, tok2.Encode(probe))
		if a != b {
			return fmt.Errorf("verify: sequence log prob changed across reload: %f vs %f", a, b)
		}
		fmt.Println("verify: round trip OK")
	}
	return nil
}

func saveTo(path string, save func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		_ = f.Close() // the save error is what matters; the partial file is discarded
		return err
	}
	return f.Close()
}
