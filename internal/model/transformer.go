package model

import (
	"math"
	"math/rand"

	"repro/internal/tokenizer"
)

// Transformer is a decoder-only transformer language model implemented from
// scratch: learned token + position embeddings, pre-norm blocks of causal
// multi-head self-attention and a GELU feed-forward, a final layer norm, and
// a tied output projection. Training is mini-batch Adam on the next-token
// cross-entropy with hand-written backpropagation.
//
// It exists because the paper's future work calls for extending ReLM "to
// other families of models": the engine consumes any LanguageModel through
// NextLogProbs, and this is the GPT-family architecture in miniature —
// the same interface the n-gram and log-bilinear substrates implement.
type Transformer struct {
	cfg    TransformerConfig
	vocab  int
	eosTok Token

	// Parameters. All matrices are row-major [][]float64.
	wte  [][]float64 // vocab x dModel token embeddings (tied with output)
	wpe  [][]float64 // seqLen x dModel position embeddings
	blks []*block
	lnF  *layerNorm

	params []*tensor // registry for the optimizer
}

// TransformerConfig sizes and trains a Transformer.
type TransformerConfig struct {
	// DModel is the residual width (default 32). Must divide by NHeads.
	DModel int
	// NHeads is the attention head count (default 2).
	NHeads int
	// NLayers is the block count (default 2).
	NLayers int
	// DFF is the feed-forward inner width (default 4*DModel).
	DFF int
	// MaxSeqLen is the context window in tokens (default 48).
	MaxSeqLen int
	// Epochs over the corpus (default 4).
	Epochs int
	// BatchSize groups training windows per Adam step (default 8).
	BatchSize int
	// LR is the Adam learning rate (default 3e-3).
	LR float64
	// Seed makes initialization and shuffling deterministic.
	Seed int64
}

func (c *TransformerConfig) defaults() {
	if c.DModel <= 0 {
		c.DModel = 32
	}
	if c.NHeads <= 0 {
		c.NHeads = 2
	}
	if c.NLayers <= 0 {
		c.NLayers = 2
	}
	if c.DFF <= 0 {
		c.DFF = 4 * c.DModel
	}
	if c.MaxSeqLen <= 0 {
		c.MaxSeqLen = 48
	}
	if c.Epochs <= 0 {
		c.Epochs = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 8
	}
	if c.LR == 0 {
		c.LR = 3e-3
	}
}

// tensor couples a parameter matrix with its gradient accumulator and Adam
// moments. Rows of the value and grad share indexing.
type tensor struct {
	val, grad [][]float64
	m, v      [][]float64 // Adam first/second moments
}

func newTensor(rows, cols int, scale float64, rng *rand.Rand) *tensor {
	alloc := func() [][]float64 {
		m := make([][]float64, rows)
		buf := make([]float64, rows*cols)
		for i := range m {
			m[i] = buf[i*cols : (i+1)*cols]
		}
		return m
	}
	t := &tensor{val: alloc(), grad: alloc(), m: alloc(), v: alloc()}
	if scale != 0 {
		for i := range t.val {
			for j := range t.val[i] {
				t.val[i][j] = rng.NormFloat64() * scale
			}
		}
	}
	return t
}

func (t *tensor) zeroGrad() {
	for i := range t.grad {
		row := t.grad[i]
		for j := range row {
			row[j] = 0
		}
	}
}

// layerNorm is a standard LayerNorm with learned gain and bias.
type layerNorm struct {
	gain, bias *tensor // 1 x dim
	dim        int
}

func newLayerNorm(dim int, rng *rand.Rand) *layerNorm {
	ln := &layerNorm{gain: newTensor(1, dim, 0, rng), bias: newTensor(1, dim, 0, rng), dim: dim}
	for j := 0; j < dim; j++ {
		ln.gain.val[0][j] = 1
	}
	return ln
}

const lnEps = 1e-5

// forward normalizes each row of x into out and records per-row mean and
// inverse stddev for the backward pass.
func (ln *layerNorm) forward(x [][]float64) (out [][]float64, mean, rstd []float64) {
	out = zeros(len(x), ln.dim)
	mean = make([]float64, len(x))
	rstd = make([]float64, len(x))
	for i, row := range x {
		mu := 0.0
		for _, v := range row {
			mu += v
		}
		mu /= float64(ln.dim)
		va := 0.0
		for _, v := range row {
			d := v - mu
			va += d * d
		}
		va /= float64(ln.dim)
		rs := 1 / math.Sqrt(va+lnEps)
		mean[i], rstd[i] = mu, rs
		g, b := ln.gain.val[0], ln.bias.val[0]
		for j, v := range row {
			out[i][j] = (v-mu)*rs*g[j] + b[j]
		}
	}
	return out, mean, rstd
}

// backward consumes dOut and produces dX, accumulating parameter grads.
func (ln *layerNorm) backward(x, dOut [][]float64, mean, rstd []float64) [][]float64 {
	dX := zeros(len(x), ln.dim)
	g := ln.gain.val[0]
	gg, gb := ln.grad(), ln.bias.grad[0]
	n := float64(ln.dim)
	for i, row := range x {
		mu, rs := mean[i], rstd[i]
		// xhat_j = (x_j - mu) * rs
		var sumDy, sumDyXhat float64
		for j := range row {
			xhat := (row[j] - mu) * rs
			dy := dOut[i][j] * g[j]
			sumDy += dy
			sumDyXhat += dy * xhat
			gg[j] += dOut[i][j] * xhat
			gb[j] += dOut[i][j]
		}
		for j := range row {
			xhat := (row[j] - mu) * rs
			dy := dOut[i][j] * g[j]
			dX[i][j] = rs * (dy - sumDy/n - xhat*sumDyXhat/n)
		}
	}
	return dX
}

func (ln *layerNorm) grad() []float64 { return ln.gain.grad[0] }

// block is one pre-norm transformer layer.
type block struct {
	ln1, ln2              *layerNorm
	wq, wk, wv, wo        *tensor // dModel x dModel
	bq, bk, bv, bo        *tensor // 1 x dModel
	wf1, wf2              *tensor // dModel x dFF, dFF x dModel
	bf1, bf2              *tensor // 1 x dFF, 1 x dModel
	nHeads, dModel, dHead int
	dFF                   int
}

func newBlock(dModel, nHeads, dFF int, rng *rand.Rand) *block {
	s := 1 / math.Sqrt(float64(dModel))
	sf := 1 / math.Sqrt(float64(dFF))
	return &block{
		ln1: newLayerNorm(dModel, rng), ln2: newLayerNorm(dModel, rng),
		wq: newTensor(dModel, dModel, s, rng), wk: newTensor(dModel, dModel, s, rng),
		wv: newTensor(dModel, dModel, s, rng), wo: newTensor(dModel, dModel, s, rng),
		bq: newTensor(1, dModel, 0, rng), bk: newTensor(1, dModel, 0, rng),
		bv: newTensor(1, dModel, 0, rng), bo: newTensor(1, dModel, 0, rng),
		wf1: newTensor(dModel, dFF, s, rng), wf2: newTensor(dFF, dModel, sf, rng),
		bf1: newTensor(1, dFF, 0, rng), bf2: newTensor(1, dModel, 0, rng),
		nHeads: nHeads, dModel: dModel, dHead: dModel / nHeads, dFF: dFF,
	}
}

func (b *block) tensors() []*tensor {
	return []*tensor{
		b.ln1.gain, b.ln1.bias, b.ln2.gain, b.ln2.bias,
		b.wq, b.wk, b.wv, b.wo, b.bq, b.bk, b.bv, b.bo,
		b.wf1, b.wf2, b.bf1, b.bf2,
	}
}

// blockCache stores forward activations for the backward pass.
type blockCache struct {
	x           [][]float64 // block input
	n1          [][]float64 // ln1 output
	mean1, rst1 []float64
	q, k, v     [][]float64
	att         [][][]float64 // per head: T x T softmaxed weights
	ctxv        [][]float64   // concatenated head outputs (pre-Wo)
	attnOut     [][]float64   // Wo projection
	res1        [][]float64   // x + attnOut
	n2          [][]float64   // ln2 output
	mean2, rst2 []float64
	ff1         [][]float64 // pre-activation
	gelu        [][]float64 // activation output
}

func zeros(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	buf := make([]float64, rows*cols)
	for i := range m {
		m[i] = buf[i*cols : (i+1)*cols]
	}
	return m
}

// matmul computes x (T x a) times w (a x b) plus bias (1 x b or nil).
func matmul(x [][]float64, w [][]float64, bias []float64, b int) [][]float64 {
	out := zeros(len(x), b)
	for i, row := range x {
		o := out[i]
		if bias != nil {
			copy(o, bias)
		}
		for a, xv := range row {
			if xv == 0 {
				continue
			}
			wr := w[a]
			for j := 0; j < b; j++ {
				o[j] += xv * wr[j]
			}
		}
	}
	return out
}

// matmulBack accumulates dX, dW and dB from dOut for out = x·w + b.
func matmulBack(x, w, dOut [][]float64, dW [][]float64, dB []float64) (dX [][]float64) {
	dX = zeros(len(x), len(w))
	for i, row := range x {
		do := dOut[i]
		for a, xv := range row {
			wr := w[a]
			dwr := dW[a]
			s := 0.0
			for j, d := range do {
				s += d * wr[j]
				dwr[j] += d * xv
			}
			dX[i][a] = s
		}
		if dB != nil {
			for j, d := range do {
				dB[j] += d
			}
		}
	}
	return dX
}

func gelu(x float64) float64 {
	// tanh approximation used by GPT-2.
	return 0.5 * x * (1 + math.Tanh(math.Sqrt(2/math.Pi)*(x+0.044715*x*x*x)))
}

func geluGrad(x float64) float64 {
	const c = 0.797884560802865 // sqrt(2/pi)
	t := math.Tanh(c * (x + 0.044715*x*x*x))
	return 0.5*(1+t) + 0.5*x*(1-t*t)*c*(1+3*0.044715*x*x)
}

// forward runs the block over a T x dModel input, returning the output and a
// cache for backward.
func (b *block) forward(x [][]float64) ([][]float64, *blockCache) {
	c := &blockCache{x: x}
	c.n1, c.mean1, c.rst1 = b.ln1.forward(x)
	c.q = matmul(c.n1, b.wq.val, b.bq.val[0], b.dModel)
	c.k = matmul(c.n1, b.wk.val, b.bk.val[0], b.dModel)
	c.v = matmul(c.n1, b.wv.val, b.bv.val[0], b.dModel)

	T := len(x)
	c.ctxv = zeros(T, b.dModel)
	c.att = make([][][]float64, b.nHeads)
	scale := 1 / math.Sqrt(float64(b.dHead))
	for h := 0; h < b.nHeads; h++ {
		off := h * b.dHead
		att := make([][]float64, T)
		for i := 0; i < T; i++ {
			// Causal: attend to positions 0..i.
			row := make([]float64, i+1)
			maxv := math.Inf(-1)
			for j := 0; j <= i; j++ {
				s := 0.0
				for d := 0; d < b.dHead; d++ {
					s += c.q[i][off+d] * c.k[j][off+d]
				}
				s *= scale
				row[j] = s
				if s > maxv {
					maxv = s
				}
			}
			z := 0.0
			for j := range row {
				row[j] = math.Exp(row[j] - maxv)
				z += row[j]
			}
			for j := range row {
				row[j] /= z
			}
			att[i] = row
			for j := 0; j <= i; j++ {
				w := row[j]
				for d := 0; d < b.dHead; d++ {
					c.ctxv[i][off+d] += w * c.v[j][off+d]
				}
			}
		}
		c.att[h] = att
	}

	c.attnOut = matmul(c.ctxv, b.wo.val, b.bo.val[0], b.dModel)
	c.res1 = zeros(T, b.dModel)
	for i := range c.res1 {
		for j := range c.res1[i] {
			c.res1[i][j] = x[i][j] + c.attnOut[i][j]
		}
	}

	c.n2, c.mean2, c.rst2 = b.ln2.forward(c.res1)
	c.ff1 = matmul(c.n2, b.wf1.val, b.bf1.val[0], b.dFF)
	c.gelu = zeros(T, b.dFF)
	for i := range c.ff1 {
		for j, v := range c.ff1[i] {
			c.gelu[i][j] = gelu(v)
		}
	}
	ff2 := matmul(c.gelu, b.wf2.val, b.bf2.val[0], b.dModel)
	out := zeros(T, b.dModel)
	for i := range out {
		for j := range out[i] {
			out[i][j] = c.res1[i][j] + ff2[i][j]
		}
	}
	return out, c
}

// backward consumes dOut for the block output and returns dX for its input.
func (b *block) backward(c *blockCache, dOut [][]float64) [][]float64 {
	T := len(c.x)

	// out = res1 + ff2 → dRes1 += dOut; dFF2 = dOut.
	dGelu := matmulBack(c.gelu, b.wf2.val, dOut, b.wf2.grad, b.bf2.grad[0])
	dFF1 := zeros(T, b.dFF)
	for i := range dGelu {
		for j := range dGelu[i] {
			dFF1[i][j] = dGelu[i][j] * geluGrad(c.ff1[i][j])
		}
	}
	dN2 := matmulBack(c.n2, b.wf1.val, dFF1, b.wf1.grad, b.bf1.grad[0])
	dRes1 := b.ln2.backward(c.res1, dN2, c.mean2, c.rst2)
	for i := range dRes1 {
		for j := range dRes1[i] {
			dRes1[i][j] += dOut[i][j]
		}
	}

	// res1 = x + attnOut.
	dCtxv := matmulBack(c.ctxv, b.wo.val, dRes1, b.wo.grad, b.bo.grad[0])

	dQ := zeros(T, b.dModel)
	dK := zeros(T, b.dModel)
	dV := zeros(T, b.dModel)
	scale := 1 / math.Sqrt(float64(b.dHead))
	for h := 0; h < b.nHeads; h++ {
		off := h * b.dHead
		att := c.att[h]
		for i := 0; i < T; i++ {
			row := att[i]
			// dV and dAtt.
			dRow := make([]float64, len(row))
			for j := range row {
				s := 0.0
				for d := 0; d < b.dHead; d++ {
					s += dCtxv[i][off+d] * c.v[j][off+d]
					dV[j][off+d] += row[j] * dCtxv[i][off+d]
				}
				dRow[j] = s
			}
			// Softmax backward: dScore_j = a_j * (dRow_j - Σ_k a_k dRow_k).
			dot := 0.0
			for j := range row {
				dot += row[j] * dRow[j]
			}
			for j := range row {
				dScore := row[j] * (dRow[j] - dot) * scale
				for d := 0; d < b.dHead; d++ {
					dQ[i][off+d] += dScore * c.k[j][off+d]
					dK[j][off+d] += dScore * c.q[i][off+d]
				}
			}
		}
	}

	dN1 := matmulBack(c.n1, b.wq.val, dQ, b.wq.grad, b.bq.grad[0])
	dn1k := matmulBack(c.n1, b.wk.val, dK, b.wk.grad, b.bk.grad[0])
	dn1v := matmulBack(c.n1, b.wv.val, dV, b.wv.grad, b.bv.grad[0])
	for i := range dN1 {
		for j := range dN1[i] {
			dN1[i][j] += dn1k[i][j] + dn1v[i][j]
		}
	}
	dX := b.ln1.backward(c.x, dN1, c.mean1, c.rst1)
	for i := range dX {
		for j := range dX[i] {
			dX[i][j] += dRes1[i][j]
		}
	}
	return dX
}

// NewTransformer builds an untrained model (useful for tests and as a random
// baseline); TrainTransformer is the usual entry point.
func NewTransformer(vocab int, eos Token, cfg TransformerConfig) *Transformer {
	cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	t := &Transformer{cfg: cfg}
	wteT := newTensor(vocab, cfg.DModel, 0.08, rng)
	wpeT := newTensor(cfg.MaxSeqLen, cfg.DModel, 0.02, rng)
	t.wte, t.wpe = wteT.val, wpeT.val
	t.params = []*tensor{wteT, wpeT}
	for i := 0; i < cfg.NLayers; i++ {
		blk := newBlock(cfg.DModel, cfg.NHeads, cfg.DFF, rng)
		t.blks = append(t.blks, blk)
		t.params = append(t.params, blk.tensors()...)
	}
	t.lnF = newLayerNorm(cfg.DModel, rng)
	t.params = append(t.params, t.lnF.gain, t.lnF.bias)
	t.eosTok = eos
	t.vocab = vocab
	return t
}

// forward computes logits for every position of seq (T x vocab) and the
// caches needed for backward. lnOut is the final layer-norm activation,
// which trainStep needs to backpropagate the tied output head. Inference
// reads parameters only, so concurrent forwards are safe.
func (t *Transformer) forward(seq []Token) (logits [][]float64, caches []*blockCache, mean, rstd []float64, hFinal, lnOut [][]float64) {
	T := len(seq)
	x := zeros(T, t.cfg.DModel)
	for i, tok := range seq {
		e := t.wte[tok]
		p := t.wpe[i]
		for j := range x[i] {
			x[i][j] = e[j] + p[j]
		}
	}
	h := x
	caches = make([]*blockCache, len(t.blks))
	for bi, blk := range t.blks {
		h, caches[bi] = blk.forward(h)
	}
	hFinal = h
	n, mu, rs := t.lnF.forward(h)
	logits = make([][]float64, T)
	for i := 0; i < T; i++ {
		row := make([]float64, t.vocab)
		for v := 0; v < t.vocab; v++ {
			s := 0.0
			e := t.wte[v]
			for j := 0; j < t.cfg.DModel; j++ {
				s += n[i][j] * e[j]
			}
			row[v] = s
		}
		logits[i] = row
	}
	return logits, caches, mu, rs, hFinal, n
}

// trainStep accumulates gradients for one sequence window and returns the
// summed cross-entropy loss and token count.
func (t *Transformer) trainStep(seq []Token) (loss float64, count int) {
	if len(seq) < 2 {
		return 0, 0
	}
	logits, caches, mu, rs, hFinal, n := t.forward(seq[:len(seq)-1])
	T := len(seq) - 1

	dN := zeros(T, t.cfg.DModel)
	wte := t.params[0]
	for i := 0; i < T; i++ {
		row := logits[i]
		Normalize(row)
		target := seq[i+1]
		loss += -row[target]
		count++
		// dlogit_v = p_v - 1{v==target}; logits = n · wteᵀ.
		for v := 0; v < t.vocab; v++ {
			g := math.Exp(row[v])
			if v == int(target) {
				g--
			}
			if g == 0 {
				continue
			}
			e := t.wte[v]
			ge := wte.grad[v]
			for j := 0; j < t.cfg.DModel; j++ {
				dN[i][j] += g * e[j]
				ge[j] += g * n[i][j]
			}
		}
	}
	dH := t.lnF.backward(hFinal, dN, mu, rs)
	for bi := len(t.blks) - 1; bi >= 0; bi-- {
		dH = t.blks[bi].backward(caches[bi], dH)
	}
	// Embedding gradients.
	wpe := t.params[1]
	for i := 0; i < T; i++ {
		ge := wte.grad[seq[i]]
		gp := wpe.grad[i]
		for j := 0; j < t.cfg.DModel; j++ {
			ge[j] += dH[i][j]
			gp[j] += dH[i][j]
		}
	}
	return loss, count
}

// adam applies one Adam update over all parameters and zeroes gradients.
func (t *Transformer) adam(lr float64, step int) {
	const b1, b2, eps = 0.9, 0.999, 1e-8
	c1 := 1 - math.Pow(b1, float64(step))
	c2 := 1 - math.Pow(b2, float64(step))
	for _, p := range t.params {
		for i := range p.val {
			vr, gr, mr, vv := p.val[i], p.grad[i], p.m[i], p.v[i]
			for j := range vr {
				g := gr[j]
				mr[j] = b1*mr[j] + (1-b1)*g
				vv[j] = b2*vv[j] + (1-b2)*g*g
				mhat := mr[j] / c1
				vhat := vv[j] / c2
				vr[j] -= lr * mhat / (math.Sqrt(vhat) + eps)
				gr[j] = 0
			}
		}
	}
}

// TrainTransformer fits a Transformer on the canonical encodings of corpus.
// Lines are encoded, EOS-terminated, and chunked into windows of MaxSeqLen.
func TrainTransformer(corpus []string, tok tokenizer.Tokenizer, cfg TransformerConfig) *Transformer {
	cfg.defaults()
	t := NewTransformer(tok.VocabSize(), tok.EOS(), cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 13))

	var windows [][]Token
	for _, line := range corpus {
		seq := append(tok.Encode(line), tok.EOS())
		for len(seq) > 1 {
			end := cfg.MaxSeqLen
			if end > len(seq) {
				end = len(seq)
			}
			windows = append(windows, seq[:end])
			if end == len(seq) {
				break
			}
			seq = seq[end-1:] // overlap one token so every transition trains
		}
	}

	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(windows), func(i, j int) { windows[i], windows[j] = windows[j], windows[i] })
		pending := 0
		for _, w := range windows {
			t.trainStep(w)
			pending++
			if pending == cfg.BatchSize {
				step++
				t.adam(cfg.LR, step)
				pending = 0
			}
		}
		if pending > 0 {
			step++
			t.adam(cfg.LR, step)
		}
	}
	return t
}

// Loss reports the mean next-token cross-entropy of the model on corpus,
// without updating parameters (gradients are discarded).
func (t *Transformer) Loss(corpus []string, tok tokenizer.Tokenizer) float64 {
	total, count := 0.0, 0
	for _, line := range corpus {
		seq := append(tok.Encode(line), tok.EOS())
		if len(seq) > t.cfg.MaxSeqLen {
			seq = seq[:t.cfg.MaxSeqLen]
		}
		if len(seq) < 2 {
			continue
		}
		logits, _, _, _, _, _ := t.forward(seq[:len(seq)-1])
		for i := 0; i+1 < len(seq); i++ {
			Normalize(logits[i])
			total += -logits[i][seq[i+1]]
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// VocabSize implements LanguageModel.
func (t *Transformer) VocabSize() int { return t.vocab }

// EOS implements LanguageModel.
func (t *Transformer) EOS() Token { return t.eosTok }

// MaxSeqLen implements LanguageModel.
func (t *Transformer) MaxSeqLen() int { return t.cfg.MaxSeqLen }
