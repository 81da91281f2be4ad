"""VOD server resource model: catalog-level capacity provisioning.

The protocols in :mod:`repro.protocols` measure how much bandwidth a policy
*wants*; an operator provisions a server for a whole catalog.
:mod:`repro.server.provisioning` aggregates per-slot load across many
titles and reduces it to overflow-probability quantiles and
statistical-multiplexing gains.
"""

from .provisioning import ProvisioningResult, provision_catalog

__all__ = [
    "ProvisioningResult",
    "provision_catalog",
]
