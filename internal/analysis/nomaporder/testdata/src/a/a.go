// Package a exercises the nomaporder analyzer's violation cases: map
// iteration order escaping into slices, channels and output streams.
package a

import "fmt"

func appendNoSort(m map[int]string) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over map`
	}
	return keys
}

func chanSend(m map[int]string, ch chan int) {
	for k := range m {
		ch <- k // want `channel send inside range over map`
	}
}

func printing(m map[int]string) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt.Println inside range over map`
	}
}

type table struct{ rows [][]string }

func (t *table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

func tableRows(m map[string]int, t *table) {
	for k := range m {
		t.AddRow(k) // want `t.AddRow inside range over map`
	}
}

// sortTooEarly sorts before the loop, which repairs nothing.
func sortTooEarly(m map[int]string) []int {
	var keys []int
	sortInts(keys)
	for k := range m {
		keys = append(keys, k) // want `append to keys inside range over map`
	}
	return keys
}

func sortInts(s []int) {}

// floatSum folds into a float that outlives the loop: its last bits
// depend on the order the map yields the values in.
func floatSum(m map[int]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation into sum inside range over map`
	}
	return sum
}
