package components

import "fmt"

// MZMSpec parameterizes a Mach-Zehnder modulator: the AE/AO converter used
// on Albireo's input path. One "modulate" action imprints one analog value
// onto an optical carrier for one symbol time.
type MZMSpec struct {
	Name string
	// ModulatePJ is the dynamic energy per modulated symbol (CV^2-class
	// driver energy). Conservative silicon MZMs are ~1 pJ/symbol;
	// aggressive projections reach tens of fJ.
	ModulatePJ float64 `param:"modulate_pj,required"`
	// BiasMW is static bias/thermal power.
	BiasMW float64 `param:"bias_mw"`
	// UM2 is device area; MZMs are long devices (~1e4-1e5 um2).
	UM2 float64 `param:"um2"`
}

// NewMZM builds a Mach-Zehnder modulator component.
func NewMZM(s MZMSpec) (Component, error) {
	if s.ModulatePJ <= 0 {
		return nil, fmt.Errorf("components: mzm %s: ModulatePJ must be positive", s.Name)
	}
	if s.UM2 <= 0 {
		s.UM2 = 30000
	}
	return NewBase(s.Name, "mzm", map[string]float64{
		ActionModulate: s.ModulatePJ,
	}, s.UM2, s.BiasMW), nil
}

// MRRSpec parameterizes a microring resonator weight element: the AE/AO
// multiplier of Albireo. Two actions matter: "program" retunes the ring to
// hold a new weight (charged once per weight fill, amortized by reuse — the
// Fig. 5 lever), and "transit" is the per-MAC optical pass.
type MRRSpec struct {
	Name string
	// ProgramPJ is the energy to retune the ring to a new weight value
	// (carrier injection / thermal settle).
	ProgramPJ float64 `param:"program_pj,required"`
	// TransitPJ is the marginal per-pass energy (usually tiny).
	TransitPJ float64 `param:"transit_pj"`
	// HeaterMW is the static thermal-stabilization power per ring.
	HeaterMW float64 `param:"heater_mw"`
	// UM2 is the ring footprint (~100-400 um2 with drivers).
	UM2 float64 `param:"um2"`
}

// NewMRR builds a microring resonator component.
func NewMRR(s MRRSpec) (Component, error) {
	if s.ProgramPJ <= 0 {
		return nil, fmt.Errorf("components: mrr %s: ProgramPJ must be positive", s.Name)
	}
	if s.TransitPJ < 0 {
		return nil, fmt.Errorf("components: mrr %s: TransitPJ must be non-negative", s.Name)
	}
	if s.UM2 <= 0 {
		s.UM2 = 200
	}
	return NewBase(s.Name, "mrr", map[string]float64{
		ActionProgram: s.ProgramPJ,
		ActionTransit: s.TransitPJ,
	}, s.UM2, s.HeaterMW), nil
}

// PhotodiodeSpec parameterizes a photodiode plus transimpedance amplifier:
// the AO/AE converter. One "detect" action converts one optical partial sum
// into an analog-electrical value.
type PhotodiodeSpec struct {
	Name string
	// DetectPJ is the energy per detected sample (TIA dominated).
	DetectPJ float64 `param:"detect_pj,required"`
	// SensitivityMW is the minimum optical power for the target SNR —
	// used by the laser budget model.
	SensitivityMW float64 `param:"sensitivity_mw"`
	// UM2 is the detector+TIA area.
	UM2 float64 `param:"um2"`
}

// Photodiode is the built photodiode+TIA. Beyond the Component interface
// it exposes its sensitivity floor, which the analog fidelity model uses
// as the received-power fallback when no physical laser is present.
type Photodiode struct {
	*Base
	sensitivityMW float64
}

// SensitivityMW returns the minimum received optical power for the target
// SNR (0 when the spec left it unset).
func (p *Photodiode) SensitivityMW() float64 { return p.sensitivityMW }

// NewPhotodiode builds a photodiode+TIA component.
func NewPhotodiode(s PhotodiodeSpec) (Component, error) {
	if s.DetectPJ <= 0 {
		return nil, fmt.Errorf("components: photodiode %s: DetectPJ must be positive", s.Name)
	}
	if s.SensitivityMW < 0 {
		return nil, fmt.Errorf("components: photodiode %s: negative sensitivity", s.Name)
	}
	if s.UM2 <= 0 {
		s.UM2 = 500
	}
	return &Photodiode{Base: NewBase(s.Name, "photodiode", map[string]float64{
		ActionDetect: s.DetectPJ,
	}, s.UM2, 0), sensitivityMW: s.SensitivityMW}, nil
}

// LaserSpec parameterizes the (off-chip) laser supply from a physical link
// budget: the photodiode must receive SensitivityMW after the optical path
// loses PathLossDB, and the wall-plug efficiency inflates the electrical
// cost. The per-MAC energy divides one wavelength-symbol's energy by the
// MACs it carries.
type LaserSpec struct {
	Name string
	// WallPlugEfficiency is optical-out / electrical-in (0..1].
	WallPlugEfficiency float64 `param:"wall_plug_efficiency,required"`
	// PathLossDB is the end-to-end optical loss from laser to detector.
	PathLossDB float64 `param:"path_loss_db"`
	// DetectorSensitivityMW is the required received power per
	// wavelength.
	DetectorSensitivityMW float64 `param:"detector_sensitivity_mw"`
	// SymbolNS is the optical symbol (cycle) duration in nanoseconds.
	SymbolNS float64 `param:"symbol_ns"`
	// MACsPerWavelengthSymbol is how many MACs one wavelength-symbol
	// carries (fan-out of one carrier across parallel multipliers).
	MACsPerWavelengthSymbol float64 `param:"macs_per_wavelength_symbol"`
}

// Laser is the built laser supply. Beyond the Component interface it
// exposes the received power its link budget delivers at the detector,
// which the analog fidelity model turns into shot noise (0 for lasers
// built from a calibrated per-MAC constant, which carry no link
// information).
type Laser struct {
	*Base
	receivedMW float64
}

// ReceivedPowerMW returns the optical power delivered at the detector per
// wavelength (the link budget's sensitivity target), or 0 when the laser
// was built without a link budget.
func (l *Laser) ReceivedPowerMW() float64 { return l.receivedMW }

// NewLaser builds a laser component. Its "supply" action is the per-MAC
// electrical energy drawn from the wall.
func NewLaser(s LaserSpec) (Component, error) {
	if s.WallPlugEfficiency <= 0 || s.WallPlugEfficiency > 1 {
		return nil, fmt.Errorf("components: laser %s: wall-plug efficiency %.3f out of (0,1]", s.Name, s.WallPlugEfficiency)
	}
	if s.DetectorSensitivityMW <= 0 || s.SymbolNS <= 0 || s.MACsPerWavelengthSymbol <= 0 {
		return nil, fmt.Errorf("components: laser %s: sensitivity, symbol time and MACs/symbol must be positive", s.Name)
	}
	if s.PathLossDB < 0 {
		return nil, fmt.Errorf("components: laser %s: negative path loss", s.Name)
	}
	launchMW := s.DetectorSensitivityMW * DBToLinear(s.PathLossDB)
	electricalMW := launchMW / s.WallPlugEfficiency
	perSymbolPJ := MilliwattsToPicojoules(electricalMW, s.SymbolNS)
	perMAC := perSymbolPJ / s.MACsPerWavelengthSymbol
	// The laser is continuously on while the accelerator runs; its
	// electrical power is exposed as static power, which is hashed into
	// the architecture fingerprint and is not charged.
	return &Laser{Base: NewBase(s.Name, "laser", map[string]float64{
		ActionSupply: perMAC,
	}, 0, electricalMW), receivedMW: s.DetectorSensitivityMW}, nil
}

// NewLaserPerMAC builds a laser component directly from a per-MAC supply
// energy, bypassing the link-budget model (used when calibrating to
// published numbers).
func NewLaserPerMAC(name string, perMACPJ, staticMW float64) (Component, error) {
	if perMACPJ <= 0 {
		return nil, fmt.Errorf("components: laser %s: per-MAC energy must be positive", name)
	}
	return &Laser{Base: NewBase(name, "laser", map[string]float64{ActionSupply: perMACPJ}, 0, staticMW)}, nil
}

// laserPerMACSpec is the laser class's per-MAC parameter schema.
type laserPerMACSpec struct {
	Name     string
	PerMACPJ float64 `param:"per_mac_pj,required"`
	StaticMW float64 `param:"static_mw"`
}

var (
	laserPerMAC = newSchema("laser", laserPerMACSpec{}, func(s laserPerMACSpec) (Component, error) {
		return NewLaserPerMAC(s.Name, s.PerMACPJ, s.StaticMW)
	})
	laserBudget = newSchema("laser", LaserSpec{DetectorSensitivityMW: 0.01, SymbolNS: 0.2, MACsPerWavelengthSymbol: 1}, NewLaser)
)

// laserSchema is the laser's registry entry: a bag holding per_mac_pj
// builds a calibrated per-MAC laser, any other a link-budget laser.
func laserSchema(p Params) *schema {
	if _, ok := p["per_mac_pj"]; ok {
		return laserPerMAC
	}
	return laserBudget
}

// StarCouplerSpec parameterizes an NxN star coupler, the passive broadcast
// element of Albireo. It costs no dynamic energy and occupies area; its
// split and excess loss enter the laser through albireo.LinkBudget.
type StarCouplerSpec struct {
	Name string
	// Ports is the fan-out N.
	Ports int `param:"ports,required"`
	// UM2PerPort scales the coupler footprint.
	UM2PerPort float64
}

// NewStarCoupler builds a star coupler component.
func NewStarCoupler(s StarCouplerSpec) (Component, error) {
	if s.Ports < 1 {
		return nil, fmt.Errorf("components: star coupler %s: ports = %d, want >= 1", s.Name, s.Ports)
	}
	if s.UM2PerPort <= 0 {
		s.UM2PerPort = 400
	}
	return NewBase(s.Name, "star_coupler", map[string]float64{
		ActionTransit: 0,
	}, s.UM2PerPort*float64(s.Ports), 0), nil
}

// WaveguideSpec parameterizes on-chip waveguide routing: passive and
// area-consuming; its loss enters the laser through albireo.LinkBudget.
type WaveguideSpec struct {
	Name string
	// LengthMM is the routed length.
	LengthMM float64 `param:"length_mm"`
	// UM2PerMM is the footprint per routed mm.
	UM2PerMM float64
}

// NewWaveguide builds a waveguide component.
func NewWaveguide(s WaveguideSpec) (Component, error) {
	if s.LengthMM < 0 {
		return nil, fmt.Errorf("components: waveguide %s: negative length", s.Name)
	}
	if s.UM2PerMM <= 0 {
		s.UM2PerMM = 500
	}
	return NewBase(s.Name, "waveguide", map[string]float64{
		ActionTransit: 0,
	}, s.UM2PerMM*s.LengthMM, 0), nil
}
