// photonic_vs_electrical compares the Albireo photonic accelerator (at all
// three scaling projections) against a conventional digital systolic array
// with the same peak throughput, the same global buffer, and the same DRAM
// — the comparison the paper's introduction motivates and that only a
// common full-system model makes fair.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"text/tabwriter"

	"photoloop"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	layer := photoloop.NewConv("conv3x3", 1, 96, 64, 32, 32, 3, 3, 1, 1)

	type row struct {
		name                       string
		macPJ, accelPJ, systemPJ   float64
		convSharePct, dramSharePct float64
	}
	var rows []row

	// Electrical baseline.
	elec, err := photoloop.ElectricalBaseline().Build()
	if err != nil {
		return err
	}
	eb, err := photoloop.Search(elec, &layer, photoloop.SearchOptions{Budget: 2000, Seed: 1})
	if err != nil {
		return err
	}
	er := eb.Result
	macs := float64(er.MACs)
	rows = append(rows, row{
		name:         "electrical 8-bit systolic",
		macPJ:        er.EnergyOf("digital_mac", "") / macs,
		accelPJ:      photoloop.AlbireoAcceleratorPJ(er) / macs,
		systemPJ:     er.PJPerMAC(),
		dramSharePct: 100 * (er.PJPerMAC() - photoloop.AlbireoAcceleratorPJ(er)/macs) / er.PJPerMAC(),
	})

	// Photonic Albireo at each scaling.
	for _, s := range []photoloop.AlbireoScaling{photoloop.Conservative, photoloop.Moderate, photoloop.Aggressive} {
		a, err := photoloop.Albireo(s).Build()
		if err != nil {
			return err
		}
		pb, err := photoloop.Search(a, &layer, photoloop.SearchOptions{
			Budget: 2000, Seed: 1,
			Seeds: photoloop.SeedList(photoloop.AlbireoCanonicalMappings(a, &layer)),
		})
		if err != nil {
			return err
		}
		pr := pb.Result
		pm := float64(pr.MACs)
		rows = append(rows, row{
			name:         fmt.Sprintf("photonic Albireo (%v)", s),
			macPJ:        (pr.EnergyOf("laser", "") + pr.EnergyOf("mrr", "")) / pm,
			accelPJ:      photoloop.AlbireoAcceleratorPJ(pr) / pm,
			systemPJ:     pr.PJPerMAC(),
			convSharePct: 100 * photoloop.AlbireoConverterPJ(pr) / pr.TotalPJ,
			dramSharePct: 100 * (pr.PJPerMAC() - photoloop.AlbireoAcceleratorPJ(pr)/pm) / pr.PJPerMAC(),
		})
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "design\tMAC pJ\taccel pJ/MAC\tsystem pJ/MAC\tconverters\tDRAM")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.3f\t%.3f\t%.3f\t%.1f%%\t%.1f%%\n",
			r.name, r.macPJ, r.accelPJ, r.systemPJ, r.convSharePct, r.dramSharePct)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, `
reading the table:
 - the optical MAC itself gets very cheap under scaling (MAC pJ column),
 - but conservative photonics lose to electronics at the accelerator level
   because every operand crosses DE/AE/AO domains (converters column),
 - and at the full-system level both technologies converge on the same
   DRAM bill — the paper's case for modeling accelerator + DRAM together.`)
	return nil
}
