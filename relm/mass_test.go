package relm

import (
	"strings"
	"testing"
)

func TestMassBasic(t *testing.T) {
	m := testModel(t)
	est, err := Mass(m, SearchQuery{
		Query: QueryString{Pattern: "( cat)|( dog)", Prefix: "The"},
	}, MassOptions{Tolerance: 1e-6})
	if err != nil {
		t.Fatal(err)
	}
	if est.Lower < 0 || est.Upper > 1 || est.Lower > est.Upper {
		t.Fatalf("unsound bounds [%g, %g]", est.Lower, est.Upper)
	}
	if !est.Converged {
		t.Fatal("2-string language must converge")
	}
	if est.Matches == 0 {
		t.Fatal("no matches resolved")
	}
	if s := est.String(); !strings.Contains(s, "mass") {
		t.Errorf("String() = %q", s)
	}
}

func TestMassOrdersBySupport(t *testing.T) {
	// The trained phone number's mass must dominate a never-seen number's.
	m := testModel(t)
	massOf := func(number string) float64 {
		est, err := Mass(m, SearchQuery{
			Query: QueryString{Pattern: " " + number, Prefix: "My phone number is"},
		}, MassOptions{Tolerance: 1e-9})
		if err != nil {
			t.Fatal(err)
		}
		return est.Lower
	}
	trained := massOf("555 555 5555")
	unseen := massOf("999 111 2222")
	if trained <= unseen {
		t.Fatalf("trained number mass %g <= unseen %g", trained, unseen)
	}
}

func TestMassSubsetMonotone(t *testing.T) {
	// mass(L1) <= mass(L1 ∪ L2): adding strings never lowers mass.
	m := testModel(t)
	est1, err := Mass(m, SearchQuery{
		Query: QueryString{Pattern: " cat", Prefix: "The"},
	}, MassOptions{Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	est2, err := Mass(m, SearchQuery{
		Query: QueryString{Pattern: "( cat)|( dog)", Prefix: "The"},
	}, MassOptions{Tolerance: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	if est2.Lower < est1.Lower-1e-12 {
		t.Fatalf("superset mass %g < subset mass %g", est2.Lower, est1.Lower)
	}
}

func TestMassTopKReducesMass(t *testing.T) {
	m := testModel(t)
	free, err := Mass(m, SearchQuery{
		Query:    QueryString{Pattern: " [a-z]{1,3}", Prefix: "The"},
		MaxNodes: 20000,
	}, MassOptions{Tolerance: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := Mass(m, SearchQuery{
		Query:    QueryString{Pattern: " [a-z]{1,3}", Prefix: "The"},
		TopK:     2,
		MaxNodes: 20000,
	}, MassOptions{Tolerance: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if filtered.Upper > free.Upper+1e-9 {
		t.Fatalf("top-k mass upper %g exceeds unfiltered %g", filtered.Upper, free.Upper)
	}
}

func TestMassErrors(t *testing.T) {
	m := testModel(t)
	if _, err := Mass(nil, SearchQuery{}, MassOptions{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Mass(m, SearchQuery{Query: QueryString{Pattern: "("}}, MassOptions{}); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := Mass(m, SearchQuery{Query: QueryString{Pattern: "a", Prefix: "[a-z]{9}"}, PrefixLimit: 10}, MassOptions{}); err == nil {
		t.Error("huge prefix accepted")
	}
}
