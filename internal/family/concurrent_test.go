package family

// core.Augment with Config.Parallel matches blocks on one worker per CPU,
// and every block's family candidate classifies through one shared Multi,
// whose base Classifier also backs the #linkprob builtins. That block
// matching is why those builtins must be safe for concurrent use. This test
// pins the implicit contract that a trained Classifier is read-only at
// prediction time: concurrent LinkProbability calls must race-cleanly
// produce identical results.

import (
	"sync"
	"testing"
)

func TestLinkProbabilityConcurrentUse(t *testing.T) {
	c := NewClassifier()
	pairs := []struct{ x, y Person }{
		{Person{Name: "Maria", Surname: "Rossi", Birth: 1955}, Person{Name: "Anna", Surname: "Rossi", Birth: 1957}},
		{Person{Name: "Giulia", Surname: "Bianchi", Birth: 1970}, Person{Name: "Marco", Surname: "Verdi", Birth: 1944}},
		{Person{Name: "Luca", Surname: "Russo", Birth: 1980}, Person{Name: "Paolo", Surname: "Russo", Birth: 1982}},
	}
	want := make([]float64, len(pairs))
	for i, p := range pairs {
		want[i] = c.LinkProbability(p.x, p.y)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				for i, p := range pairs {
					if got := c.LinkProbability(p.x, p.y); got != want[i] {
						t.Errorf("concurrent LinkProbability = %v, want %v", got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
