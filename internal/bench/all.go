package bench

// Experiment is one table or figure of the paper's evaluation section.
type Experiment struct {
	ID string
	// Run produces the figure at a given scale.
	Run func(Scale) (*Figure, error)
}

// Registry lists the experiments in presentation order: the table, the
// paper's figures numerically, then the ablations.
var Registry = []Experiment{
	{"table1", func(Scale) (*Figure, error) { return Table1() }},
	{"figure7", Figure7},
	{"figure8", Figure8},
	{"figure9", Figure9},
	{"figure10", Figure10},
	{"figure11", Figure11},
	{"figure13", Figure13},
	{"figure14", Figure14},
	{"figure15", Figure15},
	{"ablation", Ablation},
	{"ablation-mds", AblationMDS},
}

// Lookup returns the registered experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, x := range Registry {
		if x.ID == id {
			return x, true
		}
	}
	return Experiment{}, false
}
