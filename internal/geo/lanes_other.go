//go:build !amd64

package geo

// Off amd64 every entry of a row goes through its bound kernel's Cov.
var laneWidth = 0

func maternRow(w int, h []float64, beta float64, ready0, ready1 uint64, coef *[tabPanels][tabCoefs]float64) int {
	return 0
}

func sqexpRow(w int, h []float64, sigma2, beta float64) int { return 0 }
