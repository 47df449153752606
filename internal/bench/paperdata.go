package bench

// Published results from the paper, which `paper -compare` prints beside
// the reproduced tables. All numbers are copied from Tables 2, 3 and 5 of
// the paper.

// PaperTable2Row is one circuit's row of Table 2: the percentage of
// four-way bridging faults with nmin(g) ≤ n for n = 1,2,3,4,5,10. A value
// of -1 means the paper left the cell blank (100% was reached earlier).
type PaperTable2Row struct {
	Faults int
	Pct    [6]float64 // n = 1, 2, 3, 4, 5, 10
}

// PaperTable3Row is one circuit's row of Table 3: the count of faults with
// nmin(g) ≥ 100, ≥ 20 and ≥ 11.
type PaperTable3Row struct {
	Faults            int
	Ge100, Ge20, Ge11 int
}

// PaperTable5Row is one circuit's row of Table 5: among faults with
// nmin ≥ 11, the number with p(10,g) ≥ 1.0, 0.9, ..., 0.1, 0.0 (K=10000).
// -1 marks cells the paper left blank (all faults sit above the threshold).
type PaperTable5Row struct {
	Faults int
	Counts [11]int
}

// PaperTable2 holds the published Table 2 (n-columns where the paper
// stopped printing after reaching 100% are filled with 100).
var PaperTable2 = map[string]PaperTable2Row{
	"lion":     {23, [6]float64{100, 100, 100, 100, 100, 100}},
	"dk27":     {218, [6]float64{83.03, 100, 100, 100, 100, 100}},
	"ex5":      {1287, [6]float64{92.07, 100, 100, 100, 100, 100}},
	"train4":   {8, [6]float64{75.00, 100, 100, 100, 100, 100}},
	"bbtas":    {155, [6]float64{89.68, 94.84, 100, 100, 100, 100}},
	"dk15":     {1544, [6]float64{97.99, 99.42, 100, 100, 100, 100}},
	"dk512":    {1127, [6]float64{92.72, 99.91, 100, 100, 100, 100}},
	"dk14":     {3694, [6]float64{90.80, 97.64, 99.97, 100, 100, 100}},
	"dk17":     {1244, [6]float64{94.21, 98.95, 99.92, 100, 100, 100}},
	"firstex":  {288, [6]float64{83.33, 97.57, 99.65, 100, 100, 100}},
	"lion9":    {182, [6]float64{79.67, 89.56, 96.15, 100, 100, 100}},
	"mc":       {356, [6]float64{87.08, 92.42, 96.35, 100, 100, 100}},
	"dk16":     {40781, [6]float64{92.90, 98.75, 99.61, 99.94, 100, 100}},
	"modulo12": {448, [6]float64{63.62, 84.82, 93.30, 99.11, 100, 100}},
	"s8":       {294, [6]float64{59.18, 70.41, 95.24, 99.32, 100, 100}},
	"tav":      {176, [6]float64{51.14, 73.86, 88.64, 92.05, 100, 100}},
	"donfile":  {11956, [6]float64{85.95, 97.58, 98.59, 99.37, 99.79, 100}},
	"ex7":      {1358, [6]float64{90.65, 97.05, 99.26, 99.34, 99.34, 100}},
	"train11":  {482, [6]float64{69.92, 80.08, 92.95, 99.59, 99.79, 100}},
	"beecount": {804, [6]float64{89.30, 97.39, 98.51, 98.76, 99.25, 99.75}},
	"ex2":      {11499, [6]float64{90.30, 96.54, 98.57, 99.41, 99.78, 99.99}},
	"ex3":      {2104, [6]float64{86.26, 95.01, 98.95, 99.62, 99.76, 99.86}},
	"ex6":      {4051, [6]float64{94.20, 94.20, 95.51, 95.51, 98.52, 99.61}},
	"mark1":    {2469, [6]float64{89.67, 89.83, 92.99, 93.20, 94.53, 95.95}},
	"bbara":    {858, [6]float64{80.42, 84.85, 89.28, 89.51, 92.31, 97.55}},
	"ex4":      {2038, [6]float64{88.86, 88.86, 89.99, 89.99, 93.57, 95.98}},
	"keyb":     {20894, [6]float64{88.27, 91.17, 93.61, 93.99, 95.03, 97.73}},
	"opus":     {1901, [6]float64{79.22, 83.96, 89.90, 92.00, 93.42, 97.42}},
	"bbsse":    {4265, [6]float64{89.14, 89.14, 89.17, 89.17, 92.19, 95.97}},
	"cse":      {9110, [6]float64{93.61, 93.61, 95.16, 95.16, 98.25, 99.13}},
	"dvram":    {14737, [6]float64{88.78, 88.78, 88.78, 88.78, 88.78, 88.78}},
	"fetch":    {8958, [6]float64{92.10, 92.10, 92.10, 92.10, 92.10, 92.10}},
	"log":      {4290, [6]float64{95.36, 95.36, 95.36, 95.36, 95.36, 95.36}},
	"rie":      {24150, [6]float64{95.04, 95.04, 95.04, 95.04, 95.04, 95.04}},
	"s1a":      {49524, [6]float64{84.34, 84.34, 84.59, 84.59, 85.68, 88.02}},
}

// PaperTable3 holds the published Table 3 (only circuits with faults that
// need n > 10 appear).
var PaperTable3 = map[string]PaperTable3Row{
	"beecount": {804, 0, 0, 2},
	"ex2":      {11499, 0, 0, 1},
	"ex3":      {2104, 0, 0, 3},
	"ex6":      {4051, 0, 0, 16},
	"mark1":    {2469, 0, 0, 100},
	"bbara":    {858, 0, 3, 21},
	"ex4":      {2038, 0, 19, 82},
	"keyb":     {20894, 0, 206, 474},
	"opus":     {1901, 0, 4, 49},
	"bbsse":    {4265, 2, 38, 172},
	"cse":      {9110, 2, 37, 79},
	"dvram":    {14737, 1256, 1653, 1653},
	"fetch":    {8958, 688, 708, 708},
	"log":      {4290, 199, 199, 199},
	"rie":      {24150, 1136, 1197, 1197},
	"s1a":      {49524, 258, 4260, 5934},
}

// PaperTable5 holds the published Table 5: p(10,g) threshold counts with
// K = 10000, over the faults with nmin(g) ≥ 11. Thresholds are
// 1.0, 0.9, ..., 0.1, 0.0; -1 marks blank cells.
var PaperTable5 = map[string]PaperTable5Row{
	"beecount": {2, [11]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 2, -1}},
	"ex2":      {1, [11]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}},
	"ex3":      {3, [11]int{0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 3}},
	"ex6":      {16, [11]int{0, 14, 15, 15, 15, 15, 15, 15, 16, -1, -1}},
	"mark1":    {100, [11]int{42, 86, 93, 95, 98, 98, 98, 100, -1, -1, -1}},
	"bbara":    {21, [11]int{3, 14, 16, 17, 18, 19, 20, 20, 21, -1, -1}},
	"ex4":      {82, [11]int{32, 82, -1, -1, -1, -1, -1, -1, -1, -1, -1}},
	"keyb":     {474, [11]int{100, 371, 383, 418, 419, 429, 434, 443, 445, 453, 474}},
	"opus":     {49, [11]int{13, 40, 46, 47, 49, -1, -1, -1, -1, -1, -1}},
	"bbsse":    {172, [11]int{77, 143, 147, 150, 152, 153, 153, 153, 156, 170, 172}},
	"cse":      {79, [11]int{39, 76, 77, 77, 77, 77, 77, 77, 78, 78, 79}},
	"dvram":    {1653, [11]int{898, 1498, 1530, 1562, 1576, 1610, 1610, 1618, 1623, 1637, 1653}},
	"fetch":    {708, [11]int{436, 680, 693, 695, 696, 705, 705, 706, 708, -1, -1}},
	"log":      {199, [11]int{68, 167, 172, 172, 172, 172, 172, 193, 193, 199, -1}},
	"rie":      {1197, [11]int{512, 1046, 1067, 1070, 1070, 1134, 1134, 1134, 1179, 1179, 1197}},
	"s1a":      {5934, [11]int{2663, 4982, 5258, 5434, 5511, 5599, 5658, 5772, 5816, 5881, 5934}},
}

// Table5Circuits lists the circuits of Tables 3/5 in the paper's order.
var Table5Circuits = []string{
	"beecount", "ex2", "ex3", "ex6", "mark1",
	"bbara", "ex4", "keyb", "opus",
	"bbsse", "cse", "dvram", "fetch", "log", "rie", "s1a",
}
