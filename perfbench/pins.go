package main

// pins are the seed-0 outputs the gate compares against. Runs are
// deterministic per rank count, so these repeat to the last bit; a
// change to the solver's floating-point order moves them, and then they
// are regenerated together with the reason.
type pin struct {
	elements int64   // final global element count
	nu, vrms float64 // after the final solve
	resumeNu float64 // service: Nu of the resumed third cycle
}

var pins = map[string]pin{
	"bunge-gmg":      {elements: 1634, nu: 60.398421548880997, vrms: 110.32160632558411},
	"box-amg-2r":     {elements: 911, nu: 9.3661506370203522, vrms: 15.488555187575228},
	"service-resume": {nu: 27.29694379742876, resumeNu: 34.325395042897561},
}
