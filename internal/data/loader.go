package data

import (
	"fmt"

	"repro/internal/tensor"
)

// Loader iterates a dataset in shuffled mini-batches, assembling NCHW
// batch tensors. One Loader drives one training run; it is not safe for
// concurrent use.
type Loader struct {
	ds        Dataset
	batchSize int
	rng       *tensor.RNG
	order     []int
	cursor    int
	// epochRNG is the shuffle RNG's state captured immediately before the
	// current epoch's permutation was drawn; replaying reset() from it
	// regenerates the identical order. Meaningless when rng is nil.
	epochRNG uint64
}

// NewLoader constructs a loader. A nil rng disables shuffling (evaluation
// order).
func NewLoader(ds Dataset, batchSize int, rng *tensor.RNG) (*Loader, error) {
	if batchSize <= 0 {
		return nil, fmt.Errorf("data: non-positive batch size %d", batchSize)
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("data: empty dataset")
	}
	l := &Loader{ds: ds, batchSize: batchSize, rng: rng}
	l.reset()
	return l, nil
}

func (l *Loader) reset() {
	n := l.ds.Len()
	if l.rng != nil {
		l.epochRNG = l.rng.State()
		l.order = l.rng.Perm(n)
	} else if l.order == nil {
		l.order = make([]int, n)
		for i := range l.order {
			l.order[i] = i
		}
	}
	l.cursor = 0
}

// Cursor snapshots the loader's position for checkpointing: the shuffle
// RNG state that produced the current epoch's order plus the offset within
// it. Seek on an identically-constructed loader restores the exact batch
// boundary, so a resumed run replays the remaining batches of the epoch
// (and every following epoch's shuffle) bit-identically.
type Cursor struct {
	// EpochRNG is the shuffle RNG state captured before the current
	// epoch's permutation was drawn (0 and unused for unshuffled loaders).
	EpochRNG uint64
	// Offset is the position within the epoch's sample order.
	Offset int
	// Shuffled records whether the loader shuffles; Seek refuses a cursor
	// captured from the other kind.
	Shuffled bool
}

// Cursor returns the loader's current position.
func (l *Loader) Cursor() Cursor {
	return Cursor{EpochRNG: l.epochRNG, Offset: l.cursor, Shuffled: l.rng != nil}
}

// Seek restores a position captured by Cursor on a loader built over the
// same dataset with the same batch size. For shuffled loaders it rewinds
// the RNG to the cursor's epoch state, regenerates the epoch's order, and
// fast-forwards to the offset — the next call to Next returns the exact
// batch the checkpointed run would have drawn next.
func (l *Loader) Seek(c Cursor) error {
	if c.Shuffled != (l.rng != nil) {
		return fmt.Errorf("data: seek: cursor shuffled=%v, loader shuffled=%v", c.Shuffled, l.rng != nil)
	}
	if c.Offset < 0 || c.Offset > l.ds.Len() {
		return fmt.Errorf("data: seek: offset %d outside dataset of %d samples", c.Offset, l.ds.Len())
	}
	if l.rng != nil {
		l.rng.SetState(c.EpochRNG)
	}
	l.reset()
	l.cursor = c.Offset
	return nil
}

// Next returns the next mini-batch as an (N, C, H, W) tensor plus labels.
// At the end of an epoch it returns ok=false and reshuffles; the following
// call starts the next epoch.
func (l *Loader) Next() (batch *tensor.Tensor, labels []int, ok bool) {
	if l.cursor >= len(l.order) {
		l.reset()
		return nil, nil, false
	}
	end := l.cursor + l.batchSize
	if end > len(l.order) {
		end = len(l.order)
	}
	idx := l.order[l.cursor:end]
	l.cursor = end

	first, _ := l.ds.Sample(idx[0])
	shape := first.Shape()
	n := len(idx)
	batch = tensor.New(append([]int{n}, shape...)...)
	labels = make([]int, n)
	sz := first.Len()
	for i, id := range idx {
		img, label := l.ds.Sample(id)
		copy(batch.Data()[i*sz:(i+1)*sz], img.Data())
		labels[i] = label
	}
	return batch, labels, true
}
