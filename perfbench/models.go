package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"nimble"
	"nimble/internal/baselines"
	"nimble/internal/data"
	"nimble/internal/ir"
	imodels "nimble/internal/models"
	"nimble/internal/tensor"
	"nimble/internal/vm"
	"nimble/models"
)

// The dynamic-mix models are reduced from the paper's sizes so that two
// cores serve well over a thousand requests in one run; the architecture,
// and so the control flow, data structures and dynamic shapes, is the
// paper's. Paper-size LSTM (300/512) takes ~200 ms per MRPC sentence here.
var (
	mixLSTM = imodels.LSTMConfig{Input: 128, Hidden: 128, Layers: 1, Seed: 42}
	mixTree = imodels.DefaultTreeLSTMConfig()
	mixBERT = imodels.BERTConfig{Layers: 2, Hidden: 128, Heads: 4, FFN: 512, Vocab: 8192, MaxSeq: 128, Seed: 44}
)

const (
	// mixPerModel is how many distinct inputs each dynamic-mix model gets.
	mixPerModel = 32
	// eagerChecks is how many inputs per model are checked against the
	// independent eager executor.
	eagerChecks = 2
	// eagerRTol/eagerATol bound the eager check: the eager executor runs
	// the same operators unfused through other kernels, so float32 sums
	// associate differently.
	eagerRTol = 1e-3
	eagerATol = 1e-4
)

// newDynamicMix builds the paper's traffic: LSTM sequences and BERT token
// counts drawn from the MRPC length profile, Tree-LSTM trees from the SST
// profile, one third of the requests each.
func newDynamicMix(ctx context.Context, cfg config) (*inproc, error) {
	lstm := imodels.NewLSTM(mixLSTM)
	tree := imodels.NewTreeLSTM(mixTree)
	bert := imodels.NewBERT(mixBERT)
	mLSTM := &model{name: "lstm", entry: "main", build: func() *ir.Module { return imodels.NewLSTM(mixLSTM).Module }}
	mTree := &model{name: "treelstm", entry: "main", build: func() *ir.Module { return imodels.NewTreeLSTM(mixTree).Module }}
	mBERT := &model{name: "bert", entry: "main", build: func() *ir.Module { return imodels.NewBERT(mixBERT).Module }}
	w := &inproc{ms: []*model{mLSTM, mTree, mBERT}, opts: serveOptions(cfg.nproc)}

	rng := rand.New(rand.NewSource(cfg.seed))
	lstmLens := data.NewMRPC(cfg.seed + 1)
	bertLens := data.NewMRPC(cfg.seed + 2)
	sst := data.NewSST(cfg.seed + 3)
	h, in := int64(mixTree.Hidden), int64(mixTree.Input)
	leafFlops := 2*in*4*h + 2*h*4*h
	nodeFlops := 2*h*3*h + 2*2*h*h
	lstmN := stratified(rng, mixPerModel, lstmLens.Length)
	treeN := stratified(rng, mixPerModel, sst.Words)
	bertN := stratified(rng, mixPerModel, bertLens.Length)
	var steps [][]*tensor.Tensor
	var trees []*imodels.Tree
	var ids []*tensor.Tensor
	for i := 0; i < mixPerModel; i++ {
		n := lstmN[i]
		s := lstm.RandomSteps(rng, n)
		steps = append(steps, s)
		w.ins = append(w.ins, &input{
			model: mLSTM, val: models.SequenceValue(lstm, s), tokens: n, flops: lstm.StepFlops() * int64(n),
			obj: func() vm.Object { return imodels.SequenceToList(lstm.NilC.Tag, lstm.ConsC.Tag, s) },
		})

		leaves := treeN[i]
		t := imodels.RandomTree(rng, leaves, mixTree.Input)
		trees = append(trees, t)
		w.ins = append(w.ins, &input{
			model: mTree, val: models.TreeValue(tree, t), tokens: leaves,
			flops: int64(leaves)*leafFlops + int64(leaves-1)*nodeFlops,
			obj:   func() vm.Object { return tree.ToObject(t) },
		})

		n = bertN[i]
		x := bert.RandomIDs(rng, n)
		ids = append(ids, x)
		w.ins = append(w.ins, &input{
			model: mBERT, val: nimble.TensorValue(x), tokens: n, flops: bert.SeqFlops(n),
			obj: func() vm.Object { return vm.NewTensorObj(x) },
		})
	}
	w.first = []*input{w.ins[0], w.ins[1], w.ins[2]}
	if err := references(ctx, w.ms, w.ins); err != nil {
		return nil, err
	}
	if err := eagerCheck(w.ins, lstm, steps, trees, ids); err != nil {
		return nil, err
	}
	return w, nil
}

// eagerCheck compares the first references of each model with the
// independent define-by-run executor in internal/baselines. The eager
// Tree-LSTM and BERT draw their weights from the model seed plus a fixed
// offset, in the models' own order, so the offset is taken back out to give
// them the compiled models' weights.
func eagerCheck(ins []*input, lstm *imodels.LSTM, steps [][]*tensor.Tensor, trees []*imodels.Tree, ids []*tensor.Tensor) error {
	e := baselines.NewEager()
	cells := e.CellsFromModel(lstm)
	treeCfg := mixTree
	treeCfg.Seed -= 1000
	treeCell := baselines.NewEagerTreeCell(e, treeCfg)
	bertCfg := mixBERT
	bertCfg.Seed -= 2000
	eagerBERT := baselines.NewEagerBERT(e, bertCfg)
	for i := 0; i < eagerChecks; i++ {
		hTree, _ := e.RunTreeLSTM(treeCell, trees[i])
		for j, got := range []*tensor.Tensor{e.RunLSTM(cells, steps[i]), hTree.T, e.RunBERT(eagerBERT, ids[i])} {
			ref := ins[3*i+j]
			if !got.AllClose(ref.ref, eagerRTol, eagerATol) {
				return fmt.Errorf("%w: %s reference %d disagrees with the eager executor beyond rtol %g atol %g",
					errMismatch, ref.model.name, i, eagerRTol, eagerATol)
			}
		}
	}
	return nil
}

// newDecodeStream streams greedy generations of the decoder from every
// start token in its vocabulary.
func newDecodeStream(ctx context.Context, cfg config) (*inproc, error) {
	dcfg := imodels.DefaultDecoderConfig()
	dec := imodels.NewDecoder(dcfg)
	m := &model{name: "decoder", entry: "generate", stream: true, build: func() *ir.Module { return imodels.NewDecoder(dcfg).Module }}
	w := &inproc{ms: []*model{m}, opts: serveOptions(cfg.nproc)}
	for tok := int64(0); tok < int64(dcfg.Vocab); tok++ {
		start := imodels.StartToken(tok)
		w.ins = append(w.ins, &input{
			model: m, val: nimble.TensorValue(start), tokens: dcfg.MaxNew,
			flops: dec.StepFlops() * int64(dcfg.MaxNew),
			obj:   func() vm.Object { return vm.NewTensorObj(start) },
		})
	}
	w.first = []*input{w.ins[0]}
	if err := references(ctx, w.ms, w.ins); err != nil {
		return nil, err
	}
	return w, nil
}

// stratified draws n values from draw so that their distribution follows
// draw's profile closely for every seed: it sorts a sample sixteen times
// larger, keeps one value from each of n equal strata and shuffles them. A
// plain draw of a few dozen lengths moves the mean cost of a request by
// several percent from seed to seed.
func stratified(rng *rand.Rand, n int, draw func() int) []int {
	const k = 16
	big := make([]int, k*n)
	for i := range big {
		big[i] = draw()
	}
	sort.Ints(big)
	out := make([]int, n)
	for i := range out {
		out[i] = big[k*i+rng.Intn(k)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// maxQueue bounds each entry's admission queue in every stack the benchmark
// stands up, nimble-serve included. The default (4 per session) sheds
// requests whenever the shared host stalls for a few tens of milliseconds,
// and for streams, which hold their slot for their whole life, it is below
// the 8 per session the scheduler interleaves; the workloads are meant to
// measure latency with no request refused.
const maxQueue = 64

// serveOptions configures every in-process serving stack the way startChild
// configures nimble-serve: one session per core and the maxQueue bound.
func serveOptions(nproc int) []nimble.ServiceOption {
	return []nimble.ServiceOption{nimble.WithWorkers(nproc), nimble.WithMaxQueue(maxQueue)}
}
