package inline

// For the differential tests in package inline_test, which also import the
// compile engine and the search.
var (
	RefApply     = refApply
	RandomModule = randomModule
)

const RaceEnabled = raceEnabled
