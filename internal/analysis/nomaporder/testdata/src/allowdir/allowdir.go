// Package allowdir regression-tests the escape hatch for nomaporder: the
// scheduler's best-pick loops collect candidates in map order but consume
// only a totally-ordered minimum.
package allowdir

func bestPick(m map[int]float64) int {
	var cands []int
	for k := range m {
		//vcloudlint:allow nomaporder selection below totally orders on the key
		cands = append(cands, k)
	}
	best := -1
	for _, c := range cands {
		if best < 0 || c < best {
			best = c
		}
	}
	return best
}

func floatSum(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		//vcloudlint:allow nomaporder callers compare the sum with a tolerance
		sum += v
	}
	return sum
}
