package main

// Code generated by perfbench -print-refs; DO NOT EDIT.

// referenceObjectives are the proven objectives of the offline suite
// instances, each under the engine its suite runs.
var referenceObjectives = map[string]float64{
	"sdr":           10968.086471775339,
	"sdr2":          10968.09667585697,
	"sdr3":          10968.117084020236,
	"syn00-r3-nofc": 15668.635921778181,
	"syn01-r4-fcc":  21936.035188448637,
	"syn02-r5-fcm":  10793.938192825877,
	"syn03-r6-nofc": 8182.5777840941391,
	"syn04-r3-fcc":  5745.2222869649249,
	"syn05-r4-fcm":  20717.34842627859,
	"syn06-r5-nofc": 30466.770244727417,
	"syn08-r3-fcm":  5571.1990080154628,
	"syn09-r4-nofc": 0.098639455782312924,
	"syn10-r5-fcc":  11142.209240520722,
	"syn12-r3-nofc": 20891.426126996761,
	"syn13-r4-fcc":  6267.5013074867829,
	"syn15-r6-nofc": 15668.627758512876,
	"syn16-r3-fcc":  4874.7487493604685,
	"syn17-r4-fcm":  15146.351799215508,
	"syn18-r5-nofc": 6267.5880421806605,
	"syn20-r3-fcm":  0.071428571428571425,
	"syn21-r4-nofc": 41956.933356072237,
	"syn22-r5-fcc":  11490.352737195155,
	"tiny05-o":      0.083333333333333329,
	"tiny13-o":      0.083333333333333329,
	"tiny14-o":      0.083333333333333329,
	"tiny26-o":      0.083333333333333329,
	"tiny28-o":      0.083333333333333329,
	"tiny31-o":      0.083333333333333329,
	"tiny04-ho":     0.25,
	"tiny08-ho":     0.25,
	"tiny14-ho":     0.25,
	"tiny18-ho":     0.375,
	"tiny21-ho":     0.20833333333333334,
	"tiny24-ho":     0.20833333333333334,
	"tiny34-ho":     0.375,
	"tiny39-ho":     0.25,
}
