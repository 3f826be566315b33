package main

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"cellcurtain/internal/analysis"
	"cellcurtain/internal/dataset"
)

// renderAnalysis is the report curtain analyze prints, rebuilt from the
// same public analysis.Measures queries so the traced run can time the
// query sweep and compare its report byte for byte with the shipped
// program's. A drift between the two copies fails that comparison.
func renderAnalysis(w io.Writer, m analysis.Measures) {
	carriers := m.Carriers()
	fmt.Fprintf(w, "dataset: %d experiments, %d carriers\n\n", m.ExperimentCount(), len(carriers))

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)

	fmt.Fprintln(w, "LDNS pairs (Table 3)")
	fmt.Fprintln(tw, "carrier\tclient-facing\texternal\text /24s\tconsistency %")
	for _, name := range carriers {
		ps := m.Pairs(name)
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\n",
			name, ps.ClientFacing, ps.External, ps.ExternalSlash24s, ps.Consistency*100)
	}
	tw.Flush()

	fmt.Fprintln(w, "\nresolution medians, ms (Figs 5/6/13; LTE only)")
	fmt.Fprintln(tw, "carrier\tlocal p50\tgoogle p50\topendns p50\tlocal p95")
	for _, name := range carriers {
		scope := []string{name}
		l := m.ResolutionSample(scope, dataset.KindLocal, "LTE")
		g := m.ResolutionSample(scope, dataset.KindGoogle, "LTE")
		o := m.ResolutionSample(scope, dataset.KindOpenDNS, "LTE")
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\n",
			name, l.Median(), g.Median(), o.Median(), l.Percentile(95))
	}
	tw.Flush()

	fmt.Fprintln(w, "\ncache effect (Fig 7; paired back-to-back lookups)")
	fmt.Fprintf(tw, "all carriers\tmiss fraction\t%.2f\n",
		m.MissFraction(nil, dataset.KindLocal, 18*time.Millisecond))
	tw.Flush()

	fmt.Fprintln(w, "\nreplica inflation over each user's best, percent (Fig 2)")
	fmt.Fprintln(tw, "carrier\tp50\tp90\tfrac>50%")
	for _, name := range carriers {
		s := m.InflationCDF(name, "")
		if s.Len() == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.2f\n",
			name, s.Percentile(50), s.Percentile(90), 1-s.FracBelow(50))
	}
	tw.Flush()

	fmt.Fprintln(w, "\npublic vs local replicas, percent diff (Fig 14; google)")
	fmt.Fprintln(tw, "carrier\tfrac==0\tfrac<=0\tp90")
	for _, name := range carriers {
		s := m.RelativeReplicaPerf(name, dataset.KindGoogle)
		if s.Len() == 0 {
			continue
		}
		zero := s.FracBelow(0) - s.FracBelow(-1e-9)
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.0f\n", name, zero, s.FracBelow(0), s.Percentile(90))
	}
	tw.Flush()

	fmt.Fprintln(w, "\navailability (resolution outcomes; fault campaigns)")
	fmt.Fprintln(tw, "carrier\tlookups\tok %\tservfail %\ttimeout %\tfailover %\tretry amp")
	for _, name := range carriers {
		a := m.Availability([]string{name}, "")
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.2f\n",
			name, a.Total, a.Rate()*100, a.Frac(a.ServFail)*100,
			a.Frac(a.Timeout)*100, a.Frac(a.FailedOver)*100, a.RetryAmplification())
	}
	tw.Flush()

	fmt.Fprintln(w, "\nresolver churn per busiest client (Figs 8/12)")
	fmt.Fprintln(tw, "carrier\tclient\tobs\tlocal IPs\tlocal /24s\tgoogle /24s")
	for _, name := range carriers {
		id := m.BusiestClient(name)
		local := m.ResolverTimeline(name, id, dataset.KindLocal)
		google := m.ResolverTimeline(name, id, dataset.KindGoogle)
		if len(local) == 0 {
			continue
		}
		ips, p24 := analysis.CumulativeUnique(local)
		_, g24 := analysis.CumulativeUnique(google)
		gLast := 0
		if len(g24) > 0 {
			gLast = g24[len(g24)-1]
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\n",
			name, id, len(local), ips[len(ips)-1], p24[len(p24)-1], gLast)
	}
	tw.Flush()
}
