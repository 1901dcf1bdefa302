"""ADAM optimizer over the non-frozen parameters of a network."""

from __future__ import annotations

import numpy as np

# the defaults of Kingma & Ba 2015, "Adam: A Method for Stochastic Optimization"
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    def __init__(self, net, lr):
        self.net = net
        self.lr = float(lr)
        self.t = 0
        self.m = {}
        self.v = {}
        for node_name, pname in net.trainable_parameters():
            arr = net.node(node_name).layer.params[pname]
            self.m[(node_name, pname)] = np.zeros_like(arr)
            self.v[(node_name, pname)] = np.zeros_like(arr)
        # two scratch buffers the size of the largest parameter
        size = max((m.size for m in self.m.values()), default=0)
        self._scratch = (np.empty(size), np.empty(size))

    def step(self):
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for (node_name, pname), m in self.m.items():
            layer = self.net.node(node_name).layer
            if layer.frozen:
                continue
            g = layer.grads[pname]
            v = self.v[(node_name, pname)]
            # param - lr * (m / bc1) / (sqrt(v / bc2) + eps), every product and
            # quotient in the textbook order, built in the two scratch buffers
            a, b = (buf[: m.size].reshape(m.shape) for buf in self._scratch)
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=a)
            v *= BETA2
            np.multiply(g, 1.0 - BETA2, out=a)
            v += np.multiply(a, g, out=a)
            np.divide(m, bc1, out=a)
            np.sqrt(np.divide(v, bc2, out=b), out=b)
            b += EPS
            a *= self.lr
            a /= b
            layer.set_param(pname, np.subtract(layer.params[pname], a, out=a))
        for node in self.net.nodes:
            if not node.layer.frozen:
                node.layer.project()

    def reset_moments(self):
        for key in self.m:
            self.m[key][...] = 0.0
            self.v[key][...] = 0.0
        self.t = 0
