// BERT example: dynamic sequence lengths (dynamic data shapes) through the
// public API. The entry signature shows the Any dimension; note that the
// compiler does NOT mark it row-separable — attention couples sequence
// positions, so the serving layer dispatches BERT per request instead of
// merging requests.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"nimble"
	"nimble/models"
)

func main() {
	cfg := models.BERTConfig{Layers: 2, Hidden: 128, Heads: 4, FFN: 512, Vocab: 1000, MaxSeq: 64, Seed: 44}
	m := models.NewBERT(cfg)
	prog, err := nimble.Compile(m.Module)
	if err != nil {
		log.Fatal(err)
	}
	sig, err := prog.Entry("main")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("entry %s\n", sig)
	fmt.Printf("row-separable: %v (attention couples rows; requests never merge)\n", sig.RowSeparable)
	fmt.Printf("compiled: %d instructions, %d kernels\n", prog.Stats().Instructions, prog.Stats().Kernels)

	sess := prog.NewSession()
	rng := rand.New(rand.NewSource(1))
	ctx := context.Background()
	for _, n := range []int{9, 16, 23, 40} {
		ids := m.RandomIDs(rng, n)
		start := time.Now()
		out, err := sess.Invoke(ctx, "main", nimble.TensorValue(ids))
		lat := time.Since(start)
		if err != nil {
			log.Fatal(err)
		}
		t, _ := out.Tensor()
		fmt.Printf("seq len %2d (residue %d): output %v in %v\n", n, n%8, t.Shape(), lat)
	}
}
