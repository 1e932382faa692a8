package spectral

import (
	"runtime"
	"sync"
)

// FromValuesBatch computes the half-spectra of many sequences concurrently
// (one FFT per sequence is embarrassingly parallel; ≈ 6 µs each at 1 024
// points — docs/kernels.md, The period scan and the FFT). The result is
// positionally aligned with the input. The first error, if any, wins.
func FromValuesBatch(values [][]float64) ([]*HalfSpectrum, error) {
	out := make([]*HalfSpectrum, len(values))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(values) {
		workers = len(values)
	}
	if workers <= 1 {
		for i, v := range values {
			h, err := FromValues(v)
			if err != nil {
				return nil, err
			}
			out[i] = h
		}
		return out, nil
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
		next     = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				h, err := FromValues(values[i])
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					continue
				}
				out[i] = h
			}
		}()
	}
	for i := range values {
		next <- i
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
