package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy fuses the softmax activation with the cross-entropy
// loss, returning the mean loss over the batch and the gradient with
// respect to the logits (the usual (softmax − onehot)/N).
type SoftmaxCrossEntropy struct{}

// Forward computes the loss for logits (N, K) and integer labels. It
// returns the mean loss and dL/dlogits.
func (SoftmaxCrossEntropy) Forward(logits *tensor.Tensor, labels []int) (float64, *tensor.Tensor, error) {
	if logits.Rank() != 2 {
		return 0, nil, fmt.Errorf("loss: %w: logits %v", tensor.ErrShape, logits.Shape())
	}
	n, k := logits.Dim(0), logits.Dim(1)
	if len(labels) != n {
		return 0, nil, fmt.Errorf("loss: %w: %d labels for batch of %d", tensor.ErrShape, len(labels), n)
	}
	grad := tensor.New(n, k)
	ld, gd := logits.Data(), grad.Data()
	var total float64
	invN := 1 / float32(n)
	for i := 0; i < n; i++ {
		if labels[i] < 0 || labels[i] >= k {
			return 0, nil, fmt.Errorf("loss: label %d out of range [0,%d)", labels[i], k)
		}
		row := ld[i*k : (i+1)*k]
		// log-sum-exp with max subtraction for stability
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		for _, v := range row {
			sum += math.Exp(float64(v - m))
		}
		lse := float64(m) + math.Log(sum)
		total += lse - float64(row[labels[i]])
		grow := gd[i*k : (i+1)*k]
		for j, v := range row {
			p := math.Exp(float64(v-m)) / sum
			grow[j] = float32(p) * invN
		}
		grow[labels[i]] -= invN
	}
	return total / float64(n), grad, nil
}
