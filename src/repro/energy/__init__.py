"""Green-energy substrate: solar production traces and the node power model.

The paper predicts per-node renewable supply with the PVWATTS simulator
(NREL weather database + panel model) and accounts dirty energy as
``g(x_i) = E_i f(x_i) − Σ_t GE_i(t)``: a draw's deficit against one
site's trace (:meth:`EnergyTrace.deficit_joules`), which each cluster
node bills for itself (:meth:`repro.cluster.node.Node.bill`). Offline
we replace PVWATTS with the same model family the paper cites (Goiri et
al.'s ``GE(t) = p(w(t))·B(t)``): a clear-sky irradiance model from
solar geometry, a seeded AR(1) cloud-cover process with per-location
climate parameters, and the Kasten–Czeplak cloud attenuation factor.
"""

from repro.energy.solar import SolarPanel, clear_sky_irradiance, cloud_attenuation, SolarModel
from repro.energy.traces import Location, EnergyTrace, GOOGLE_DC_LOCATIONS, generate_trace
from repro.energy.power import NodePowerModel, PAPER_CORE_WATTS, PAPER_BASE_WATTS

__all__ = [
    "SolarPanel",
    "SolarModel",
    "clear_sky_irradiance",
    "cloud_attenuation",
    "Location",
    "EnergyTrace",
    "GOOGLE_DC_LOCATIONS",
    "generate_trace",
    "NodePowerModel",
    "PAPER_CORE_WATTS",
    "PAPER_BASE_WATTS",
]
