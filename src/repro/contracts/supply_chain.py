"""IoT supply-chain monitoring (proof-of-concept application).

The paper's discussion mentions "an IoT-based supply chain use case to
monitor the health of temperature-sensitive products during transit".
Each shipment is a CRDT Map: sensors append readings under their own
keys (no two sensors conflict), a G-Counter accumulates the number of
temperature violations, and MV-Registers track custody hand-offs.
All updates are I-confluent: readings are per-sensor-keyed inserts,
violation counts only grow, and custody transfers from the same courier
happen-after each other.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.contract import (
    ContractContext,
    SmartContract,
    modify_function,
    read_function,
)
from repro.errors import ContractError


def shipment_object_id(shipment: str) -> str:
    return f"supplychain/{shipment}"


class SupplyChainContract(SmartContract):
    """Track temperature readings and custody of shipments."""

    contract_id = "supply_chain"

    def __init__(self, max_temperature: float = 8.0) -> None:
        self.max_temperature = max_temperature
        super().__init__()

    @modify_function
    def record_reading(
        self, ctx: ContractContext, shipment: str, reading_id: str, temperature: float
    ) -> None:
        """Append a sensor reading; count a violation if out of range."""
        if not isinstance(temperature, (int, float)) or isinstance(temperature, bool):
            raise ContractError(f"temperature must be numeric, got {temperature!r}")
        object_id = shipment_object_id(shipment)
        ctx.insert_value(
            object_id,
            key=f"{ctx.client_id}:{reading_id}",
            value=temperature,
            path=("readings",),
        )
        if temperature > self.max_temperature:
            ctx.add_value(object_id, 1, path=("violations",))

    @modify_function
    def transfer_custody(self, ctx: ContractContext, shipment: str, holder: str) -> None:
        """Record a custody hand-off to ``holder``."""
        ctx.assign_value(shipment_object_id(shipment), holder, path=("custody",))

    @read_function
    def shipment_health(self, ctx: ContractContext, shipment: str) -> Dict[str, Any]:
        """Violation count, reading count, and current custody."""
        object_id = shipment_object_id(shipment)
        readings = ctx.state.read(object_id, ("readings",))
        violations = ctx.state.read(object_id, ("violations",))
        custody = ctx.state.read(object_id, ("custody",))
        return {
            "readings": len(readings) if isinstance(readings, dict) else 0,
            "violations": violations or 0,
            "custody": custody,
        }


__all__ = ["SupplyChainContract", "shipment_object_id"]
