# A local function passed around as a value may run at any later point
qc = QuantumCircuit(3, 3)
qc.h(0)


def entangle():
    qc.cx(0, 1)
    qc.cx(1, 2)


step = entangle
step()
qc.measure(0, 0)

sub = QuantumCircuit(2)
sub.x(0)


def build():
    return sub


callbacks = [build]
scheduler.register(build)
